"""Command-line front end.

Subcommands: ``spectrum``, ``classify``, ``threshold``, ``examples``,
``verify``, ``oracle``. All reports are JSON on stdout with floats printed
to 17 significant digits so outputs round-trip exactly and are byte-stable
per numpy/LAPACK build.

Exit codes: 0 success, 1 verification mismatch or counterexample, 2 usage or
parse error, 3 numeric or internal failure (including floating-point overflow
and invalid operations, which every command runs under
``np.errstate(over="raise", invalid="raise")``, and any other exception,
reported as one ``internal error:`` line).
"""

import argparse
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .curvature import einstein_constant, scalar
from .descriptors import (
    COMPLEX_KINDS,
    FLAT_KINDS,
    DescriptorError,
    build_tensor,
    a_const,
    b_const,
    closed_form_clusters,
    descriptor_to_obj,
    leaf_obj,
    parse_descriptor,
)
from .errors import ConvergenceError, InvalidInputError
from .numerics import cluster_spectrum
from .operator2k import (
    CLASSIFY_TOL,
    alpha_sum,
    bruteforce_min_alpha_sum,
    nonneg_threshold,
    nonpos_threshold,
    spectrum,
    verdict,
)
from .rigidity import (
    HARNESS_CASES,
    check_rigidity,
    verify_product_structure,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

EXAMPLES_KAPPA_GRID = (0.5, 1.0, 2.0)
EXAMPLES_REAL_DIMS = (2, 3, 4)
EXAMPLES_COMPLEX_DIMS = (1, 2, 3)
EXAMPLES_EUCLIDEAN_DIMS = (1, 2)
# the products of two kinds, in the order ``examples`` reports them
EXAMPLES_PRODUCTS = (
    ("sphere", "sphere"),
    ("hyperbolic", "hyperbolic"),
    ("sphere", "euclidean"),
    ("hyperbolic", "euclidean"),
    ("sphere", "hyperbolic"),
    ("cp", "cp"),
    ("ch", "ch"),
    ("cp", "complex_euclidean"),
    ("ch", "complex_euclidean"),
    ("cp", "ch"),
)
EXAMPLES_VALUE_TOL = 1e-9


def _format_float(x):
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


# the text of each scalar, by exact type, so that a subclass or a numpy
# scalar, which no report holds, falls through to the TypeError
_SCALARS = {
    float: _format_float,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def dumps_json(obj):
    """Serialize to JSON, indented by two spaces, with floats at 17 digits;
    strings and keys are escaped as ``json.dumps`` escapes them by default,
    by the same ``encode_basestring_ascii``. A report holds only exact
    ``dict``, ``list``, ``tuple``, ``str``, ``int``, ``float``, ``bool`` and
    ``None``; any other type, a subclass or a numpy scalar included, raises
    ``TypeError: cannot serialize <type>``."""
    out = []
    _emit(obj, out, 0)
    return "".join(out)


def _emit(obj, out, level):
    kind = type(obj)
    scalar_text = _SCALARS.get(kind)
    if scalar_text is not None:
        out.append(scalar_text(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        pad = "  " * (level + 1)
        sep, comma = "{\n" + pad, ",\n" + pad
        for key, value in obj.items():
            head = f"{sep}{encode_basestring_ascii(str(key))}: "
            scalar_text = _SCALARS.get(type(value))
            if scalar_text is None:
                out.append(head)
                _emit(value, out, level + 1)
            else:
                out.append(head + scalar_text(value))
            sep = comma
        out.append("\n" + "  " * level + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        pad = "  " * (level + 1)
        sep, comma = "[\n" + pad, ",\n" + pad
        for value in obj:
            scalar_text = _SCALARS.get(type(value))
            if scalar_text is None:
                out.append(sep)
                _emit(value, out, level + 1)
            else:
                out.append(sep + scalar_text(value))
            sep = comma
        out.append("\n" + "  " * level + "]")
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def _clusters_obj(clusters):
    return [{"value": float(v), "multiplicity": int(m)} for v, m in clusters]


def _load_descriptor(path):
    """Parse the descriptor file at ``path``: its bytes decoded as UTF-8 once,
    with the newlines of a text-mode read, ``\r\n`` and a lone ``\r`` read
    as ``\n``, so that a JSON error names the same line and column."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DescriptorError(f"cannot read descriptor file {path!r}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_descriptor(text)


def _resolve_alpha(token, desc, n):
    if token == "line":
        if n < 2:
            raise DescriptorError("symbolic alpha 'line' needs total dimension >= 2")
        return a_const(n - 1, 1)
    if token in ("A", "B"):
        if desc.kind != "product" or len(desc.factors) != 2:
            raise DescriptorError(
                f"symbolic alpha {token!r} needs a product descriptor with exactly two factors"
            )
        f1, f2 = desc.factors
        if token == "A":
            return a_const(f1.dim, f2.dim)
        if f1.kind not in COMPLEX_KINDS or f2.kind not in COMPLEX_KINDS:
            raise DescriptorError("symbolic alpha 'B' needs two complex factors")
        return b_const(f1.m, f2.m)
    try:
        return float(token)
    except ValueError as exc:
        raise DescriptorError(
            f"alpha must be a number or one of 'A', 'B', 'line', got {token!r}"
        ) from exc


def _thresholds_obj(s):
    return {"nonneg": nonneg_threshold(s), "nonpos": nonpos_threshold(s)}


def _report_head(desc, tensor):
    """Solve the spectrum and start a report with the fields that every
    spectrum-based report opens with: ``input``, ``n`` and ``N``."""
    started = time.perf_counter()
    s = spectrum(tensor)
    return {"input": descriptor_to_obj(desc), "n": tensor.dim, "N": len(s)}, s, started


def _base_report(desc, tensor):
    # computed in key order, so the first overflow is the one a report of
    # huge curvature names; the clusters and the thresholds read one list
    report, s, started = _report_head(desc, tensor)
    values = s.tolist()
    report.update(
        scalar_curvature=scalar(tensor),
        einstein_constant=einstein_constant(tensor),
        spectrum=_clusters_obj(cluster_spectrum(values)),
        thresholds=_thresholds_obj(values),
        classifications=[],
        closed_form=None,
    )
    closed = closed_form_clusters(desc)
    if closed is not None:
        report["closed_form"] = _clusters_obj(closed)
    return report, s, started


def _finish(report, started):
    report["timing"] = {"seconds": time.perf_counter() - started}
    return report


def _cmd_spectrum(args):
    desc = _load_descriptor(args.file)
    report, _, started = _base_report(desc, build_tensor(desc))
    print(dumps_json(_finish(report, started)))
    return EXIT_OK


def _cmd_classify(args):
    desc = _load_descriptor(args.file)
    tensor = build_tensor(desc)
    report, s, started = _base_report(desc, tensor)
    for token in args.alpha:
        alpha = _resolve_alpha(token, desc, tensor.dim)
        report["classifications"].append(
            {"requested": token, "alpha": alpha, "verdict": verdict(s, alpha, args.tol)}
        )
    print(dumps_json(_finish(report, started)))
    return EXIT_OK


def _cmd_threshold(args):
    desc = _load_descriptor(args.file)
    report, s, started = _report_head(desc, build_tensor(desc))
    report["thresholds"] = _thresholds_obj(s.tolist())
    print(dumps_json(_finish(report, started)))
    return EXIT_OK


def _example_sizes(kind, in_product=False):
    """The size grid of a kind; a flat factor of a product takes the small
    Euclidean sizes."""
    if kind in FLAT_KINDS and in_product:
        return EXAMPLES_EUCLIDEAN_DIMS
    return EXAMPLES_COMPLEX_DIMS if kind in COMPLEX_KINDS else EXAMPLES_REAL_DIMS


def _example_leaves(kind, size):
    """One leaf per grid curvature; a flat kind has none to vary."""
    if kind in FLAT_KINDS:
        return [leaf_obj(kind, size)]
    return [leaf_obj(kind, size, k) for k in EXAMPLES_KAPPA_GRID]


def _example_single(name, *kinds):
    return name, [leaf for kind in kinds for size in _example_sizes(kind)
                  for leaf in _example_leaves(kind, size)]


def _example_product(a, b):
    """Products over every size pair, then every curvature pair; a product of
    a kind with itself lists each unordered size pair once."""
    cases = [
        {"kind": "product", "factors": [f1, f2]}
        for s1 in _example_sizes(a, True) for s2 in _example_sizes(b, True)
        if a != b or s1 <= s2
        for f1 in _example_leaves(a, s1) for f2 in _example_leaves(b, s2)
    ]
    return f"{a}-x-{b}".replace("_", "-"), cases


def _example_families():
    """The thirteen model families with their parameter grids."""
    return ([_example_single("space-forms", "sphere", "hyperbolic"),
             _example_single("complex-space-forms", "cp", "ch")]
            + [_example_product(a, b) for a, b in EXAMPLES_PRODUCTS]
            + [_example_single("euclidean-flat", "euclidean")])


def _compare_clusters(expected, computed, value_tol):
    if len(expected) != len(computed):
        return False, float("inf")
    max_err = 0.0
    for (ev, em), (cv, cm) in zip(expected, computed):
        if em != cm:
            return False, float("inf")
        max_err = max(max_err, abs(ev - cv))
    return max_err <= value_tol, max_err


def _cmd_examples(args):
    started = time.perf_counter()
    families_out = []
    all_match = True
    for name, case_objs in _example_families():
        cases = []
        family_match = True
        for obj in case_objs:
            desc = parse_descriptor(json.dumps(obj))
            expected = closed_form_clusters(desc)
            computed = cluster_spectrum(spectrum(build_tensor(desc)))
            match, max_err = _compare_clusters(expected, computed, EXAMPLES_VALUE_TOL)
            family_match = family_match and match
            cases.append({
                "descriptor": obj,
                "expected": _clusters_obj(expected),
                "computed": _clusters_obj(computed),
                "max_value_error": max_err if max_err != float("inf") else None,
                "match": match,
            })
        all_match = all_match and family_match
        families_out.append({
            "family": name,
            "cases_run": len(cases),
            "all_match": family_match,
            "cases": cases,
        })
    out = {
        "families": families_out,
        "family_count": len(families_out),
        "all_match": all_match,
        "timing": {"seconds": time.perf_counter() - started},
    }
    print(dumps_json(out))
    return EXIT_OK if all_match else EXIT_MISMATCH


def _cmd_verify(args):
    # each given size, grid or file flag is a parameter, which a harness
    # that does not read it rejects
    params = {}
    for key in ("n", "n1", "n2", "m1", "m2", "file1", "file2"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.kappa_grid is not None:
        try:
            params["grid"] = [float(t) for t in args.kappa_grid.split(",")]
        except ValueError as exc:
            raise DescriptorError(
                f"--kappa-grid must be comma-separated numbers: {exc}"
            ) from exc
    if args.harness == "product":
        files = [params.pop("file1", None), params.pop("file2", None)]
        if params:
            raise InvalidInputError(f"unexpected product parameters: {sorted(params)}")
        if not all(files):
            raise DescriptorError("the product harness needs --file1 and --file2")
        r1, r2 = (build_tensor(_load_descriptor(path)) for path in files)
        report = verify_product_structure(r1, r2, tol=args.tol)
    else:
        report = check_rigidity(args.harness, params, seed=args.seed,
                                samples=args.samples, tol=args.tol)
    print(dumps_json(report.to_dict()))
    return EXIT_OK if report.verdict != "violated" else EXIT_MISMATCH


def _cmd_oracle(args):
    desc = _load_descriptor(args.file)
    tensor = build_tensor(desc)
    started = time.perf_counter()
    s = spectrum(tensor)
    alpha = _resolve_alpha(args.alpha, desc, tensor.dim)
    expected = alpha_sum(s, alpha)
    result = bruteforce_min_alpha_sum(tensor, alpha, args.samples, args.seed)
    eigenbasis_value = result.sample_values[0]
    least = min(result.sample_values)
    # rounding in the sums grows with the operator norm, so the tolerances do
    scale = max(1.0, float(np.abs(s).max()))
    eigen_ok = abs(eigenbasis_value - expected) <= 1e-9 * scale
    floor_ok = least >= expected - 1e-8 * scale
    report = {
        "input": descriptor_to_obj(desc),
        "alpha": alpha,
        "alpha_sum": expected,
        "oracle_min": least,
        "eigenbasis_value": eigenbasis_value,
        "argmin_sample": result.argmin_sample,
        "argmin_digest": result.argmin_digest,
        "samples": args.samples,
        "min_sample_value": least,
        "max_sample_value": max(result.sample_values),
        "consistent": eigen_ok and floor_ok,
        "timing": {"seconds": time.perf_counter() - started},
    }
    print(dumps_json(report))
    return EXIT_OK if report["consistent"] else EXIT_MISMATCH


@functools.cache
def _commands():
    """The one definition of the command line, read by ``build_parser`` and
    by ``_strict_namespace``: each subcommand's handler, help, positionals
    and options, in the order the help lists them. An argument's spec is the
    keyword arguments of its ``add_argument``. Built on the first run, so it
    binds the handlers of that time."""
    file = ("file", {"help": "descriptor JSON file"})
    tol = {"type": float, "default": CLASSIFY_TOL}
    return {
        "spectrum": (_cmd_spectrum, "spectrum, thresholds, and invariants of a descriptor",
                     (file,), {}),
        "classify": (
            _cmd_classify, "spectrum report plus verdicts at requested alphas", (file,),
            {"--alpha": {"action": "append", "required": True,
                         "help": "numeric alpha or one of 'A', 'B', 'line' (repeatable)"},
             "--tol": tol}),
        "threshold": (_cmd_threshold, "nonnegativity/nonpositivity thresholds only",
                      (file,), {}),
        "examples": (_cmd_examples, "evaluate the thirteen model families against closed forms",
                     (), {}),
        "verify": (
            _cmd_verify, "run a verification harness",
            (("harness", {"choices": list(HARNESS_CASES) + ["product"]}),),
            {"--seed": {"type": int, "default": 0},
             "--samples": {"type": int, "default": 200},
             "--tol": tol,
             "--n": {"type": int, "help": "total dimension (line harness)"},
             "--n1": {"type": int},
             "--n2": {"type": int},
             "--m1": {"type": int},
             "--m2": {"type": int},
             "--kappa-grid": {"help": "comma-separated kappa values for the iff sweeps"},
             "--file1": {"help": "first factor descriptor (product harness)"},
             "--file2": {"help": "second factor descriptor (product harness)"}}),
        "oracle": (
            _cmd_oracle, "compare the eigenvalue sum against random-basis sampling", (file,),
            {"--alpha": {"required": True},
             "--samples": {"type": int, "default": 200},
             "--seed": {"type": int, "default": 0}}),
    }


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error in one ``error:`` line, without the usage text."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser():
    """The command-line parser of ``_commands()``, built once per process,
    on the first argv that ``_strict_namespace`` declines: ``parse_args``
    returns a fresh namespace on every call, so ``run`` can share it."""
    parser = _ArgumentParser(
        prog="secondkind",
        description="Spectra and fractional nonnegativity thresholds of the "
                    "curvature operator on traceless symmetric two-tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, options) in _commands().items():
        p = sub.add_parser(name, help=text)
        for arg, spec in positionals + tuple(options.items()):
            p.add_argument(arg, **spec)
        p.set_defaults(func=func)
    return parser


def _dest(flag):
    return flag[2:].replace("-", "_")


def _strict_namespace(argv):
    """The namespace that ``build_parser().parse_args(argv)`` returns, for an
    argv ``SUBCOMMAND POSITIONAL... (--option VALUE)...`` of exact, distinct
    ``store`` options with every required one given, no token after the
    subcommand that starts with ``-``, and each value of its argument's type
    and choices; None for any other argv, which argparse parses or rejects."""
    row = _commands().get(argv[0]) if argv else None
    if row is None:
        return None
    func, _, positionals, options = row
    first = len(positionals) + 1
    if len(argv) < first or (len(argv) - first) % 2:
        return None
    values = {"command": argv[0], **{dest: None for dest, _ in positionals},
              **{_dest(flag): spec.get("default") for flag, spec in options.items()}}
    args = list(zip(positionals, argv[1:first]))
    given = set()
    for flag, token in zip(argv[first::2], argv[first + 1::2]):
        spec = options.get(flag)
        if spec is None or "action" in spec or flag in given:
            return None
        given.add(flag)
        args.append(((_dest(flag), spec), token))
    if any(spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    for (dest, spec), token in args:
        if token[:1] == "-":
            return None
        try:
            value = spec.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    values["func"] = func
    return argparse.Namespace(**values)


def run(argv):
    args = _strict_namespace(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # overflow or an invalid operation ends the command instead of
        # leaving inf/NaN to surface later as warnings or odd results
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (DescriptorError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:
        # last resort: a defect still ends in one line and a documented code
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

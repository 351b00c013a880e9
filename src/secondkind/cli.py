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
    a_const,
    b_const,
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
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


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
    # dispatch on the exact type, so a subclass or a numpy scalar, which no
    # report holds, falls through to the TypeError
    kind = type(obj)
    if kind is float:
        out.append(_format_float(obj))
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        pad = "  " * (level + 1)
        sep, comma = "{\n" + pad, ",\n" + pad
        for key, value in obj.items():
            out.append(f"{sep}{encode_basestring_ascii(str(key))}: ")
            _emit(value, out, level + 1)
            sep = comma
        out.append("\n" + "  " * level + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        pad = "  " * (level + 1)
        sep, comma = "[\n" + pad, ",\n" + pad
        for value in obj:
            out.append(sep)
            _emit(value, out, level + 1)
            sep = comma
        out.append("\n" + "  " * level + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _clusters_obj(clusters):
    return [{"value": float(v), "multiplicity": int(m)} for v, m in clusters]


def _load_descriptor(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DescriptorError(f"cannot read descriptor file {path!r}: {exc}") from exc
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
    # huge curvature names
    report, s, started = _report_head(desc, tensor)
    report.update(
        scalar_curvature=scalar(tensor),
        einstein_constant=einstein_constant(tensor),
        spectrum=_clusters_obj(cluster_spectrum(s)),
        thresholds=_thresholds_obj(s),
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
    report["thresholds"] = _thresholds_obj(s)
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


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error in one ``error:`` line, without the usage text."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser():
    """The command-line parser, built once per process: ``parse_args``
    returns a fresh namespace on every call, so ``run`` can share it."""
    parser = _ArgumentParser(
        prog="secondkind",
        description="Spectra and fractional nonnegativity thresholds of the "
                    "curvature operator on traceless symmetric two-tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectrum, thresholds, and invariants of a descriptor")
    p.add_argument("file", help="descriptor JSON file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("classify", help="spectrum report plus verdicts at requested alphas")
    p.add_argument("file", help="descriptor JSON file")
    p.add_argument("--alpha", action="append", required=True,
                   help="numeric alpha or one of 'A', 'B', 'line' (repeatable)")
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("threshold", help="nonnegativity/nonpositivity thresholds only")
    p.add_argument("file", help="descriptor JSON file")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("examples",
                       help="evaluate the thirteen model families against closed forms")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("verify", help="run a verification harness")
    p.add_argument("harness", choices=list(HARNESS_CASES) + ["product"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL)
    p.add_argument("--n", type=int, default=None, help="total dimension (line harness)")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.add_argument("--m1", type=int, default=None)
    p.add_argument("--m2", type=int, default=None)
    p.add_argument("--kappa-grid", default=None,
                   help="comma-separated kappa values for the iff sweeps")
    p.add_argument("--file1", default=None, help="first factor descriptor (product harness)")
    p.add_argument("--file2", default=None, help="second factor descriptor (product harness)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle",
                       help="compare the eigenvalue sum against random-basis sampling")
    p.add_argument("file", help="descriptor JSON file")
    p.add_argument("--alpha", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)
    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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

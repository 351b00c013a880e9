"""Seeded inputs and output checks for the three benchmark workloads.

Every input is made here from the workload seed with ``random`` and numpy
alone; the program under test only sees the descriptor files and command
lines written from them. Each item carries the check its output must pass.
"""

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

DYADIC_KAPPAS = (0.25, 0.5, 1.0, 2.0, 4.0)
CLOSED_FORM_TOL = 1e-9

# Factor sizes of the model zoo: the grid that ``secondkind examples`` covers.
ZOO_SIZES = {
    "sphere": (2, 3, 4),
    "hyperbolic": (2, 3, 4),
    "euclidean": (1, 2),
    "cp": (1, 2, 3),
    "ch": (1, 2, 3),
    "complex_euclidean": (1, 2),
}
ZOO_SINGLES = ("sphere", "hyperbolic", "cp", "ch")
ZOO_PRODUCTS = (
    ("sphere", "sphere"), ("hyperbolic", "hyperbolic"),
    ("sphere", "euclidean"), ("hyperbolic", "euclidean"), ("sphere", "hyperbolic"),
    ("cp", "cp"), ("ch", "ch"),
    ("cp", "complex_euclidean"), ("ch", "complex_euclidean"), ("cp", "ch"),
)
# kappa slots per curved factor, as in the three-value grid of ``examples``
ZOO_KAPPA_SLOTS = 3

FALSIFY_REPEATS = 4
FALSIFY_SAMPLES = {"line": 6, "product-spheres": 6, "product-kahler": 4}
# Sample 73 of ``verify product-kahler --m1 2 --m2 2 --seed 0`` overflows in
# the Jacobi sweep; since sample i of seed s uses seeds s^2i and s^(2i+1),
# ``--seed 146 --samples 1`` replays exactly that sample on every pass.
KNOWN_WARNING_ARGV = ("verify", "product-kahler", "--m1", "2", "--m2", "2",
                      "--seed", "146", "--samples", "1")

ORACLE_SAMPLES = 1000
ORACLE_CUSTOM_DIMS = (3, 4, 5, 6)
ORACLE_CUSTOM_REPEATS = 2


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    counts: dict = field(default_factory=dict)


@dataclass
class Item:
    kind: str
    argv: tuple
    check: object  # (exit code, stdout text) -> Outcome


@dataclass
class Workload:
    items: list
    warmup: Item
    tail_pct: float


def _report(rc, out):
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(out)


def check_spectrum(rc, out):
    report = _report(rc, out)
    expected, computed = report["closed_form"], report["spectrum"]
    if expected is None:
        return Outcome(False, "no closed form")
    if len(expected) != len(computed):
        return Outcome(False, f"{len(computed)} clusters, closed form has {len(expected)}")
    for e, c in zip(expected, computed):
        if e["multiplicity"] != c["multiplicity"]:
            return Outcome(False, f"multiplicity {c['multiplicity']} != {e['multiplicity']}")
        if abs(e["value"] - c["value"]) > CLOSED_FORM_TOL:
            return Outcome(False, f"value {c['value']!r} != {e['value']!r}")
    return Outcome(True)


def harness_check(samples_expected):
    def check(rc, out):
        report = _report(rc, out)
        counts = {
            "samples_run": report["samples_run"],
            "counterexamples": len(report["counterexamples"]),
            "findings": len(report["findings"]),
        }
        if counts["counterexamples"]:
            return Outcome(False, f"{counts['counterexamples']} counterexamples", counts)
        if report["samples_run"] != samples_expected:
            return Outcome(False, f"samples_run {report['samples_run']} != {samples_expected}",
                           counts)
        return Outcome(True, counts=counts)
    return check


def oracle_check(samples_expected):
    def check(rc, out):
        report = _report(rc, out)
        if report["consistent"] is not True:
            return Outcome(False, "oracle not consistent")
        if report["samples"] != samples_expected:
            return Outcome(False, f"samples {report['samples']} != {samples_expected}")
        return Outcome(True)
    return check


def _leaf(kind, size, kappa):
    if kind in ("sphere", "hyperbolic", "euclidean"):
        obj = {"kind": kind, "dim": size}
    else:
        obj = {"kind": kind, "m": size}
    if kind in ZOO_SINGLES:
        obj["kappa"] = kappa
    return obj


def _slots(kind, kappas):
    return kappas if kind in ZOO_SINGLES else (None,)


def zoo_descriptors(rng):
    """The 489 cases of ``examples``, with the three kappa grid values drawn
    from the dyadic set. Which factors share a kappa does not depend on the
    seed, so neither does the degeneracy of the spectra."""
    kappas = rng.sample(DYADIC_KAPPAS, ZOO_KAPPA_SLOTS)
    objs = [_leaf(kind, size, kappa) for kind in ZOO_SINGLES
            for size in ZOO_SIZES[kind] for kappa in kappas]
    objs += [{"kind": "euclidean", "dim": n} for n in ZOO_SIZES["sphere"]]
    for k1, k2 in ZOO_PRODUCTS:
        for s1 in ZOO_SIZES[k1]:
            for s2 in ZOO_SIZES[k2]:
                if k1 == k2 and s2 < s1:
                    continue
                objs += [{"kind": "product",
                          "factors": [_leaf(k1, s1, c1), _leaf(k2, s2, c2)]}
                         for c1 in _slots(k1, kappas) for c2 in _slots(k2, kappas)]
    return objs


def random_curvature_components(n, rng):
    """Algebraic curvature tensor: a symmetric form on 2-vectors minus its
    Bianchi (cyclic) part, drawn from the numpy generator ``rng``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    w = rng.standard_normal((len(pairs), len(pairs)))
    w = (w + w.T) / 2.0
    t = np.zeros((n, n, n, n))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            t[i, j, k, l] = t[j, i, l, k] = w[a, b]
            t[j, i, k, l] = t[i, j, l, k] = -w[a, b]
    cyclic = (t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)) / 3.0
    return t - cyclic


def custom_descriptor(n, rng):
    comps = random_curvature_components(n, rng)
    return {"kind": "custom", "dim": n, "components": [float(v) for v in comps.ravel()]}


def _write(workdir, name, obj):
    """Write a descriptor file into the work directory; return its path."""
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(obj, separators=(",", ":")), encoding="utf-8")
    return str(path)


def _line_product():
    return {"kind": "product", "factors": [
        {"kind": "sphere", "dim": 3, "kappa": 1}, {"kind": "euclidean", "dim": 1}]}


def build_zoo(seed, workdir):
    rng = random.Random(seed)
    objs = zoo_descriptors(rng)
    rng.shuffle(objs)
    items = [Item("spectrum:" + "x".join(f["kind"] for f in obj.get("factors", [obj])),
                  ("spectrum", _write(workdir, f"zoo{i:04d}", obj)), check_spectrum)
             for i, obj in enumerate(objs)]
    warmup = Item("warmup", ("spectrum", _write(workdir, "warmup", _line_product())),
                  check_spectrum)
    # p99.5 lies inside the slowest group of cases (the N = 77 products, six
    # sweeps), where p99 sat on its edge and moved with noise
    return Workload(items, warmup, tail_pct=99.5)


def _product_factor(rng, nprng):
    kind = rng.choice(("sphere", "hyperbolic", "cp", "ch", "custom"))
    if kind == "custom":
        return custom_descriptor(3, nprng)
    if kind in ("sphere", "hyperbolic"):
        return {"kind": kind, "dim": rng.choice((2, 3, 4)), "kappa": rng.choice(DYADIC_KAPPAS)}
    return {"kind": kind, "m": rng.choice((1, 2)), "kappa": rng.choice(DYADIC_KAPPAS)}


def build_falsify(seed, workdir):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)

    def seed_arg():
        return str(rng.getrandbits(32))

    items = []
    for _ in range(FALSIFY_REPEATS):
        for harness, size in (("line", ("--n", "6")),
                              ("product-spheres", ("--n1", "3", "--n2", "3")),
                              ("product-kahler", ("--m1", "2", "--m2", "2"))):
            samples = FALSIFY_SAMPLES[harness]
            items.append(Item("verify:" + harness,
                              ("verify", harness, *size, "--seed", seed_arg(),
                               "--samples", str(samples)),
                              harness_check(samples)))
    items.append(Item("verify:product-kahler", KNOWN_WARNING_ARGV, harness_check(1)))
    for _ in range(FALSIFY_REPEATS // 2):
        for harness in ("iff-spheres", "iff-kahler"):
            grid = sorted(rng.sample(DYADIC_KAPPAS, 4))
            items.append(Item("verify:" + harness,
                              ("verify", harness, "--kappa-grid", ",".join(map(str, grid))),
                              harness_check(2 * len(grid) ** 2)))
    for i in range(FALSIFY_REPEATS):
        f1 = _write(workdir, f"factor{i}a", _product_factor(rng, nprng))
        f2 = _write(workdir, f"factor{i}b", _product_factor(rng, nprng))
        items.append(Item("verify:product", ("verify", "product", "--file1", f1, "--file2", f2),
                          harness_check(1)))
    rng.shuffle(items)
    warmup = Item("warmup", ("verify", "line", "--n", "4", "--samples", "2", "--seed", "0"),
                  harness_check(2))
    return Workload(items, warmup, tail_pct=90)


def _dyadic_alpha(rng, big_n):
    return str(rng.randrange(1, big_n) + rng.choice((0.0, 0.25, 0.5, 0.75)))


def build_oracle(seed, workdir):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    samples = str(ORACLE_SAMPLES)
    items = []
    for n in ORACLE_CUSTOM_DIMS:
        for r in range(ORACLE_CUSTOM_REPEATS):
            path = _write(workdir, f"custom{n}_{r}", custom_descriptor(n, nprng))
            alpha = _dyadic_alpha(rng, (n - 1) * (n + 2) // 2)
            items.append(Item(f"oracle:custom{n}",
                              ("oracle", path, "--alpha", alpha, "--samples", samples,
                               "--seed", str(rng.getrandbits(32))),
                              oracle_check(ORACLE_SAMPLES)))
    line = _write(workdir, "s3xr", _line_product())
    cp = _write(workdir, "cp1xcp1", {"kind": "product", "factors": [
        {"kind": "cp", "m": 1, "kappa": 1}, {"kind": "cp", "m": 1, "kappa": 1}]})
    for path, alpha, kind in ((line, "line", "oracle:s3xr"), (cp, "B", "oracle:cp1xcp1")):
        items.append(Item(kind, ("oracle", path, "--alpha", alpha, "--samples", samples,
                                 "--seed", str(rng.getrandbits(32))),
                          oracle_check(ORACLE_SAMPLES)))
    rng.shuffle(items)
    warmup = Item("warmup", ("oracle", line, "--alpha", "line", "--samples", "200",
                             "--seed", "0"), oracle_check(200))
    return Workload(items, warmup, tail_pct=90)


BUILDERS = {"zoo": build_zoo, "falsify": build_falsify, "oracle": build_oracle}


def min_items(tail_pct):
    """Fewest items for which at least ten lie beyond the tail percentile."""
    return math.ceil(10 / (1 - tail_pct / 100) - 1e-9)

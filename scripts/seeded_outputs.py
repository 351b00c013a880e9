#!/usr/bin/env python3
"""Run a fixed set of seeded commands through ``secondkind.cli.run`` in one
process and write every outcome to one JSON file, so that the outputs of two
versions of the program can be compared with ``diff``.

The command set: every ``verify`` harness at seeds 0 and 7 at its default
sizes; the sampled harnesses at seeds 0 and 7 at the sizes of the
benchmark's ``falsify`` workload (``line --n 6``, ``product-spheres --n1 3
--n2 3``, ``product-kahler --m1 2 --m2 2``) and at asymmetric sizes in both
factor orders (``line --n 5``, ``--n1 2 --n2 3``, ``--m1 1 --m2 2``); the
largest Kahler draw, ``product-kahler --m1 3 --m2 3 --samples 20``, at
seeds 0 and 7; the benchmark's pinned ``product-kahler --m1 2 --m2 2
--seed 146 --samples 1`` item; the iff sweeps at the asymmetric sizes on
``--kappa-grid 0.5,1,2``; ``verify product`` over all ordered pairs of
``descriptors/*.json``, and of a generated ``{"kind": "euclidean", "dim":
1}`` as ``--file1`` and as ``--file2`` against each of them and against
itself, so that the dimension-1 factor blocks are compared too;
``examples``, and ``spectrum``, ``threshold``,
``classify`` and ``oracle`` (1000 samples, seed 7, and 65 samples, seed 0)
over ``descriptors/*.json`` at alpha in {1.5, 3, line, A, B}, plus two
descriptors whose curvature overflows a double; ``spectrum`` of each
curved model kind at kappa in {0.3, 1/3, 7.1, 5e-324}, off the dyadic grid
and at the least subnormal, and of ``cp`` with ``m = 1`` at 4e307 (peak
1.6e308) and 4.5e307 (peak overflows), so that the scaled model tensors are
compared too; ``spectrum`` and
``classify`` at those alphas of a three-factor product and of a product
with a product factor, so that the n-ary block fill is compared too; and
``spectrum`` over malformed descriptors, so that the parse errors of every
kind are compared too: each model-space kind below its least size, a missing ``kappa``, a
``kappa`` on ``euclidean``, a bool ``m``, a product with a bad factor, and
two-factor products nested 32, 40 and 300 levels deep; and two ``verify``
commands given flags their harness does not read, ``line --file1
nonexistent.json`` and ``product`` of ``descriptors/s4.json`` with itself
with ``--n 7 --kappa-grid 1,2``; and ``iff-spheres`` on a grid of 224
values, one more than the sweep sample bound allows; and three runs that
cross the seams of the harnesses' sample blocks and reach the structure
detectors: ``line --n 5 --samples 130 --tol 50`` (every sample classifies),
``product-kahler --m1 1 --m2 1 --samples 70 --tol 50`` (a finding per
sample) and ``iff-spheres`` on a 9-value grid (81 grid pairs); and
``spectrum`` of S^2(1) x S^2(1.00000005) and of that product times R,
whose factors' Einstein constants and eigenvalues are one cluster, so that
the clustering of the closed forms is compared too; ``threshold`` of S^4 at
kappa 5e307, whose negated running sum overflows (exit 3), so that the
thresholds' overflow path is compared too; and ``spectrum`` of an S^3
descriptor that starts with a UTF-8 byte order mark, which is rejected as
``json.loads`` rejects it; and ``spectrum`` of five ``custom`` descriptors
that each fail one identity check, so that the per-tensor re-check of
``curvature.check_identities`` and its messages are compared too: dimension
2 with ``R[1,0,0,1] = +R[0,1,0,1]`` (first index pair), dimension 2 with
``R[1,0,0,1] = -R[0,1,0,1]`` and no ``R[0,1,1,0]`` (second index pair),
dimension 3 with ``R[0,1,0,2]`` and its antisymmetric placements but no
exchange partner (pair exchange), dimension 4 with ``w (x) w`` for ``w =
e0^e1 + e2^e3`` (first Bianchi identity), and dimension 2 with
``R[0,1,0,1] = R[1,0,0,1] = 1.5e308``, whose first residual overflows
(exit 3); and four runs with unequal factors that cross a block seam and
whose every sample reaches the structure detectors, so that the bordered
blocks of unequal factor widths are compared too: ``product-spheres --n1 2
--n2 4`` and ``--n1 4 --n2 2``, ``product-kahler --m1 1 --m2 2`` and
``--m1 2 --m2 1``, each ``--samples 70 --tol 50 --seed 3``; and both iff
sweeps at their default sizes on grids at the ends of the double range, so
that the closed-form sweep's overflow, its exact fallback and its
underflow are compared too: ``--kappa-grid 1e308,1`` (overflow, decided
exactly), ``3e307,1`` (Kahler overflows, the spheres do not), twelve non-dyadic
values ``1e30 * (1 + k/7)`` (rounding of about 1e15 against g = 0 at equal
curvatures) and ``5e-324,1e-323,1`` with ``--tol 5e-324`` (subnormal
curvatures and tolerance), and ``iff-kahler --kappa-grid 1e307,1``, whose
g(B) at unequal curvatures is 6 exactly but about 0 in floats; and four
runs at the edge of the sizes whose factors the sampled harnesses map
straight from their draws, each crossing a block seam with every sample
classified, so that the classified samples' factors and their detectors
are compared too: ``line --n 7 --samples 130 --tol 50``,
``product-spheres --n1 5 --n2 5`` and ``product-kahler --m1 2 --m2 2``,
each ``--samples 70 --tol 50 --seed 3``, the largest mapped sizes, and
``line --n 8 --samples 70 --tol 50``, the least size above them, which
takes its factors' parts of its own draws; and
``product-spheres --n1 3 --n2 3`` and ``line --n 6`` with ``--samples 0
--tol 50``, whose model checks at a loose tol read the model spectra that
the default-tol runs above solved, so that a spectrum cached within the
process is compared too; and ``line --n 6 --samples 64 --tol 3``,
``product-spheres --n1 3 --n2 3 --samples 64 --tol 5`` and
``product-kahler --m1 1 --m2 2 --samples 64 --tol 1`` at seeds 0 and 7,
whose one block the sorted diagonal decides in part and the eigensolve
in part, so that a block split between the two is compared too; and, last,
four runs above the sizes whose factors are mapped, with two curved
factors and 32 to 70 counterexamples each, so that the bordered blocks
taken of the draws' own images and the detectors of their classified
samples are compared too: ``product-spheres --n1 5 --n2 6`` and ``--n1 6 --n2 5``,
``product-kahler --m1 2 --m2 3`` and ``--m1 3 --m2 2``, each ``--samples
70 --tol 50 --seed 3``; and seven argv forms that the strict grammar of
``cli.run`` declines, so that what argparse makes of them is compared too:
``verify line --n=6 --seed 0 --samples 6`` (the ``=`` form), ``--sam 6``
for ``--samples 6`` (an abbreviation), ``verify --n 6 line --samples 6``
(an option before the positional), ``--seed 1 --seed 2`` (a repeat),
``--seed -3`` (a value that starts with ``-``), ``--samples x`` (a bad
int, exit 2) and ``oracle descriptors/s4.json --samples 5`` (no required
``--alpha``, exit 2); and ``oracle`` at two operator widths that the
descriptors miss, so that the oracle's sampled bases are compared there too:
N = 5, a ``custom`` n = 3 tensor at alpha in {1.5, 3, line, 5} with both
oracle runs above, and N = 35, S^4 x S^4, whose blocks hold 38 samples, at
alpha in {1.5, A, 35} with ``--samples 65`` at seeds 0 and 7, so that a
block seam is crossed; alpha = N makes every basis tie the trace, so the
argmin falls on a re-drawn basis; and ``spectrum`` of descriptor files whose
bytes test the read: CRLF line ends with a JSON error after a line break,
lone CRs with one, CRLF, CR and LF mixed with one, a valid CRLF file, a UTF-8
byte order mark before CRLF, an invalid UTF-8 byte, an empty file and a
directory, so that the decoding, the newlines and the line and column of a
JSON error are compared too; and both iff sweeps at their default sizes on
each 4-value grid of {0.25, 0.5, 1, 2, 4}, written as the benchmark's
``falsify`` workload writes them, so that every sweep input of that
workload is compared too; and two ``iff-kahler`` sweeps at ``--tol
5e-324`` whose grids hold a pair at an end of the exact interval of ratios
k2/k1 where the product is nonnegative at B, so g is exactly 0 there:
``--m1 1 --m2 2 --kappa-grid 4,13`` (r = 4/13) and ``--m1 2 --m2 2
--kappa-grid 3,5`` (r = 3/5, two forms on each side), so that a tie of the
sweep's forms is compared too.
Each record holds the command line, the exit code, stderr, stdout parsed as
JSON with every ``timing`` block removed, and the raw stdout text with every
``"seconds": <number>`` masked, so that a change in the emitted bytes shows
too. Warnings are reset before each command, so stderr shows what a fresh
process would print.

Usage: PYTHONPATH=src python scripts/seeded_outputs.py OUT.json
(point PYTHONPATH at another checkout's ``src`` to record that version).
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

try:
    from secondkind.cli import run
except ModuleNotFoundError as exc:
    if exc.name != "secondkind":
        raise
    print("seeded_outputs.py: cannot import secondkind; run it with PYTHONPATH=src",
          file=sys.stderr)
    sys.exit(2)

REPO = Path(__file__).resolve().parents[1]
HARNESSES = ("line", "product-spheres", "product-kahler", "iff-spheres", "iff-kahler")
SEEDS = (0, 7)
SIZED_HARNESSES = (
    ("line", "--n", "6"),
    ("product-spheres", "--n1", "3", "--n2", "3"),
    ("product-kahler", "--m1", "2", "--m2", "2"),
    ("line", "--n", "5"),
    ("product-spheres", "--n1", "2", "--n2", "3"),
    ("product-spheres", "--n1", "3", "--n2", "2"),
    ("product-kahler", "--m1", "1", "--m2", "2"),
    ("product-kahler", "--m1", "2", "--m2", "1"),
    ("product-kahler", "--m1", "3", "--m2", "3", "--samples", "20"),
)
PINNED_ITEM = ("verify", "product-kahler", "--m1", "2", "--m2", "2",
               "--seed", "146", "--samples", "1")
SWEEPS = (
    ("iff-spheres", "--n1", "2", "--n2", "3"),
    ("iff-spheres", "--n1", "3", "--n2", "2"),
    ("iff-kahler", "--m1", "1", "--m2", "2"),
    ("iff-kahler", "--m1", "2", "--m2", "1"),
)
KAPPA_GRID = "0.5,1,2"
# the mask of tests/test_cli.py's golden spectrum check
SECONDS = re.compile(r'"seconds": [0-9.eE+-]+')
ALPHAS = ("1.5", "3", "line", "A", "B")
ORACLE_RUNS = (("1000", "7"), ("65", "0"))
OVERFLOW_DESCRIPTORS = {
    "overflow_cp2.json": '{"kind": "cp", "m": 2, "kappa": 1e308}',
    "overflow_s3.json": '{"kind": "sphere", "dim": 3, "kappa": 1e308}',
}
SCALED_KAPPAS = (("0.3", 0.3), ("third", 1 / 3), ("7.1", 7.1), ("5e-324", 5e-324))
SCALED_DESCRIPTORS = {
    **{f"scaled_{kind}_{label}.json": json.dumps({"kind": kind, size: value, "kappa": kappa})
       for kind, size, value in (("sphere", "dim", 3), ("hyperbolic", "dim", 3),
                                 ("cp", "m", 2), ("ch", "m", 2))
       for label, kappa in SCALED_KAPPAS},
    "scaled_cp_4e307.json": '{"kind": "cp", "m": 1, "kappa": 4e307}',
    "scaled_cp_4.5e307.json": '{"kind": "cp", "m": 1, "kappa": 4.5e307}',
}
NARY_DESCRIPTORS = {
    "nary_s2xs2xr.json": ('{"kind": "product", "factors": [{"kind": "sphere", "dim": 2, '
                          '"kappa": 1}, {"kind": "sphere", "dim": 2, "kappa": 1}, '
                          '{"kind": "euclidean", "dim": 1}]}'),
    "nested_cp1xs2_xh3.json": ('{"kind": "product", "factors": [{"kind": "product", "factors": '
                               '[{"kind": "cp", "m": 1, "kappa": 2}, {"kind": "sphere", '
                               '"dim": 2, "kappa": 0.5}]}, {"kind": "hyperbolic", "dim": 3, '
                               '"kappa": 0.25}]}'),
}
UNREAD_FLAGS = (
    ("verify", "line", "--file1", "nonexistent.json"),
    ("verify", "product", "--file1", "descriptors/s4.json", "--file2", "descriptors/s4.json",
     "--n", "7", "--kappa-grid", "1,2"),
)
# 2 * 224^2 sweep samples, one grid value over MAX_SAMPLES
OVERSIZED_GRID = ("verify", "iff-spheres", "--kappa-grid",
                  ",".join(str(k / 4) for k in range(1, 225)))
BLOCK_SEAMS = (
    ("verify", "line", "--n", "5", "--samples", "130", "--tol", "50"),
    ("verify", "product-kahler", "--m1", "1", "--m2", "1", "--samples", "70", "--tol", "50"),
    ("verify", "iff-spheres", "--kappa-grid", "0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25"),
)
UNEQUAL_SEAMS = tuple(
    ("verify", *sizes, "--samples", "70", "--tol", "50", "--seed", "3")
    for sizes in (("product-spheres", "--n1", "2", "--n2", "4"),
                  ("product-spheres", "--n1", "4", "--n2", "2"),
                  ("product-kahler", "--m1", "1", "--m2", "2"),
                  ("product-kahler", "--m1", "2", "--m2", "1")))
EXTREME_SWEEPS = tuple(
    ("verify", case, "--kappa-grid", *grid)
    for case in ("iff-spheres", "iff-kahler")
    for grid in (("1e308,1",), ("3e307,1",),
                 (",".join(repr(1e30 * (1 + k / 7)) for k in range(12)),),
                 ("5e-324,1e-323,1", "--tol", "5e-324"))
) + (("verify", "iff-kahler", "--kappa-grid", "1e307,1"),)
MAP_EDGES = (
    ("verify", "line", "--n", "7", "--samples", "130", "--tol", "50"),
    ("verify", "product-spheres", "--n1", "5", "--n2", "5", "--samples", "70", "--tol", "50",
     "--seed", "3"),
    ("verify", "product-kahler", "--m1", "2", "--m2", "2", "--samples", "70", "--tol", "50",
     "--seed", "3"),
    ("verify", "line", "--n", "8", "--samples", "70", "--tol", "50"),
)
# the model spectra of these sizes are cached by the SIZED_HARNESSES runs
WARM_MODELS = tuple(
    ("verify", *sizes, "--samples", "0", "--tol", "50")
    for sizes in (("product-spheres", "--n1", "3", "--n2", "3"), ("line", "--n", "6")))
# one block each, some samples decided by the diagonal and the rest solved
SPLIT_BLOCKS = tuple(
    ("verify", *sizes, "--samples", "64", "--tol", tol, "--seed", str(seed))
    for sizes, tol in ((("line", "--n", "6"), "3"),
                       (("product-spheres", "--n1", "3", "--n2", "3"), "5"),
                       (("product-kahler", "--m1", "1", "--m2", "2"), "1"))
    for seed in SEEDS)
# two curved factors above the mapped sizes; 32 to 70 of 70 samples classify
UNMAPPED_PAIRS = tuple(
    ("verify", *sizes, "--samples", "70", "--tol", "50", "--seed", "3")
    for sizes in (("product-spheres", "--n1", "5", "--n2", "6"),
                  ("product-spheres", "--n1", "6", "--n2", "5"),
                  ("product-kahler", "--m1", "2", "--m2", "3"),
                  ("product-kahler", "--m1", "3", "--m2", "2")))
# forms that the strict grammar of cli.run passes on to argparse
FALLBACK_FORMS = (
    ("verify", "line", "--n=6", "--seed", "0", "--samples", "6"),
    ("verify", "line", "--n", "6", "--seed", "0", "--sam", "6"),
    ("verify", "--n", "6", "line", "--samples", "6"),
    ("verify", "line", "--n", "6", "--seed", "1", "--seed", "2", "--samples", "6"),
    ("verify", "line", "--n", "6", "--seed", "-3", "--samples", "6"),
    ("verify", "line", "--n", "6", "--samples", "x"),
    ("oracle", "descriptors/s4.json", "--samples", "5"),
)
NEAR_EQUAL_SPHERES = ('{"kind": "sphere", "dim": 2, "kappa": 1}, '
                      '{"kind": "sphere", "dim": 2, "kappa": 1.00000005}')
NEAR_EQUAL_DESCRIPTORS = {
    "near_equal_s2xs2.json": f'{{"kind": "product", "factors": [{NEAR_EQUAL_SPHERES}]}}',
    "near_equal_s2xs2xr.json": (f'{{"kind": "product", "factors": [{NEAR_EQUAL_SPHERES}, '
                                '{"kind": "euclidean", "dim": 1}]}'),
}
OVERFLOW_SUM_DESCRIPTOR = "overflow_sum_s4.json"
BOM_DESCRIPTOR = "bom_s3.json"
EDGE_DESCRIPTORS = {
    OVERFLOW_SUM_DESCRIPTOR: '{"kind": "sphere", "dim": 4, "kappa": 5e307}',
    BOM_DESCRIPTOR: '\ufeff{"kind": "sphere", "dim": 3, "kappa": 1}',
}


def _custom(dim, entries):
    """Text of a ``custom`` descriptor of dimension ``dim`` whose components
    are 0 except ``entries``, a dict from index quadruples to values."""
    comp = [0.0] * dim ** 4
    for (i, j, k, l), value in entries.items():
        comp[((i * dim + j) * dim + k) * dim + l] = value
    return json.dumps({"kind": "custom", "dim": dim, "components": comp})


OMEGA = {(0, 1): 1.0, (1, 0): -1.0, (2, 3): 1.0, (3, 2): -1.0}
IDENTITY_FAULTS = {
    "fault_first_pair.json": _custom(2, {(0, 1, 0, 1): 1.0, (1, 0, 0, 1): 1.0}),
    "fault_second_pair.json": _custom(2, {(0, 1, 0, 1): 1.0, (1, 0, 0, 1): -1.0}),
    "fault_exchange.json": _custom(3, {(0, 1, 0, 2): 1.0, (1, 0, 0, 2): -1.0,
                                       (0, 1, 2, 0): -1.0, (1, 0, 2, 0): 1.0}),
    "fault_bianchi.json": _custom(4, {a + b: x * y for a, x in OMEGA.items()
                                      for b, y in OMEGA.items()}),
    "fault_overflow.json": _custom(2, {(0, 1, 0, 1): 1.5e308, (1, 0, 0, 1): 1.5e308}),
}
# a symmetric form on the 2-vectors e0^e1, e0^e2, e1^e2 of R^3; in
# dimension 3 its Bianchi part vanishes, so it is a curvature tensor as it is
PAIRS3 = ((0, 1), (0, 2), (1, 2))
PAIR_FORM3 = ((1.0, 0.5, -0.25), (0.5, -2.0, 0.75), (-0.25, 0.75, 1.5))
ORACLE_WIDTH_DESCRIPTORS = {
    "custom3.json": _custom(3, {quad: sign * w
                                for (i, j), row in zip(PAIRS3, PAIR_FORM3)
                                for (k, l), w in zip(PAIRS3, row)
                                for quad, sign in (((i, j, k, l), 1.0), ((j, i, l, k), 1.0),
                                                   ((j, i, k, l), -1.0), ((i, j, l, k), -1.0))}),
    "s4xs4.json": ('{"kind": "product", "factors": [{"kind": "sphere", "dim": 4, "kappa": 1}, '
                   '{"kind": "sphere", "dim": 4, "kappa": 1}]}'),
}
ORACLE_WIDTH_RUNS = (
    ("custom3.json", ("1.5", "3", "line", "5"), ORACLE_RUNS),
    ("s4xs4.json", ("1.5", "A", "35"), (("65", "0"), ("65", "7"))),
)
# file bytes that test the read of a descriptor, and a directory in its place
READ_EDGE_DESCRIPTORS = {
    "read_crlf_error.json": b'{\r\n  "kind": "sphere",\r\n  "dim": 3,\r\n  "kappa": 1,\r\n}\r\n',
    "read_cr_error.json": b'{"kind": "sphere",\r"dim": 3,\r"kappa": x}',
    "read_mixed_error.json": b'{\r\n"kind":\r\r\n "sphere",\n\r"dim": 3,\r\n"kappa" 1}',
    "read_crlf_valid.json": b'{\r\n  "kind": "cp",\r\n  "m": 2,\r\n  "kappa": 0.5\r\n}\r\n',
    "read_bom_crlf.json": b'\xef\xbb\xbf{\r\n"kind": "sphere", "dim": 3, "kappa": 1}',
    "read_invalid_utf8.json": b'{"kind": "sph\xffere", "dim": 3, "kappa": 1}',
    "read_empty.json": b"",
}
READ_EDGE_DIRECTORY = "read_directory.json"
# every sweep input of the benchmark's falsify workload: 4 of its dyadic kappas
FALSIFY_SWEEPS = tuple(
    ("verify", case, "--kappa-grid", ",".join(map(str, grid)))
    for case in ("iff-spheres", "iff-kahler")
    for grid in itertools.combinations((0.25, 0.5, 1.0, 2.0, 4.0), 4))
# pairs at the ends of the interval of ratios where the Kahler product is
# nonnegative at B, where g = 0 exactly
TIE_SWEEPS = (
    ("verify", "iff-kahler", "--m1", "1", "--m2", "2", "--kappa-grid", "4,13",
     "--tol", "5e-324"),
    ("verify", "iff-kahler", "--m1", "2", "--m2", "2", "--kappa-grid", "3,5",
     "--tol", "5e-324"),
)
LINE_DESCRIPTOR = "euclidean_line.json"
LINE_TEXT = '{"kind": "euclidean", "dim": 1}'


def _nested_product(depth):
    """Text of ``depth`` two-factor products, each the first factor of the
    next, with a flat line as every other factor."""
    text = LINE_TEXT
    for _ in range(depth):
        text = f'{{"kind": "product", "factors": [{text}, {LINE_TEXT}]}}'
    return text


MALFORMED_DESCRIPTORS = {
    "small_sphere.json": '{"kind": "sphere", "dim": 1, "kappa": 1}',
    "small_hyperbolic.json": '{"kind": "hyperbolic", "dim": 1, "kappa": 1}',
    "small_euclidean.json": '{"kind": "euclidean", "dim": 0}',
    "small_cp.json": '{"kind": "cp", "m": 0, "kappa": 1}',
    "small_ch.json": '{"kind": "ch", "m": 0, "kappa": 1}',
    "small_complex_euclidean.json": '{"kind": "complex_euclidean", "m": 0}',
    "no_kappa_cp.json": '{"kind": "cp", "m": 2}',
    "kappa_euclidean.json": '{"kind": "euclidean", "dim": 2, "kappa": 1}',
    "bool_m_ch.json": '{"kind": "ch", "m": true, "kappa": 1}',
    "bad_factor.json": ('{"kind": "product", "factors": [{"kind": "sphere", "dim": 2, '
                        '"kappa": 1}, {"kind": "complex_euclidean", "m": 0}]}'),
    **{f"nested_{depth}.json": _nested_product(depth) for depth in (32, 40, 300)},
}


def _without_timing(obj):
    if isinstance(obj, dict):
        return {k: _without_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_without_timing(v) for v in obj]
    return obj


def _descriptor_commands(path):
    commands = [("spectrum", path), ("threshold", path)]
    for alpha in ALPHAS:
        commands.append(("classify", path, "--alpha", alpha))
        for samples, seed in ORACLE_RUNS:
            commands.append(("oracle", path, "--alpha", alpha,
                             "--samples", samples, "--seed", seed))
    return commands


def commands(tmp_dir):
    """The fixed command list; descriptor paths are relative to the repo,
    except the generated ones in ``tmp_dir``."""
    descriptors = sorted(str(p.relative_to(REPO)) for p in (REPO / "descriptors").glob("*.json"))
    out = [("verify", h, "--seed", str(s)) for h in HARNESSES for s in SEEDS]
    out += [("verify", *h, "--seed", str(s)) for h in SIZED_HARNESSES for s in SEEDS]
    out.append(PINNED_ITEM)
    out += [("verify", *h, "--kappa-grid", KAPPA_GRID) for h in SWEEPS]
    out += [("verify", "product", "--file1", a, "--file2", b)
            for a in descriptors for b in descriptors]
    line = os.path.join(tmp_dir, LINE_DESCRIPTOR)
    out += [("verify", "product", "--file1", a, "--file2", b)
            for a, b in [(line, line)] + [pair for path in descriptors
                                          for pair in ((line, path), (path, line))]]
    out.append(("examples",))
    for path in descriptors:
        out += _descriptor_commands(path)
    for name in OVERFLOW_DESCRIPTORS:
        out += _descriptor_commands(os.path.join(tmp_dir, name))
    out += [("spectrum", os.path.join(tmp_dir, name)) for name in SCALED_DESCRIPTORS]
    for name in NARY_DESCRIPTORS:
        path = os.path.join(tmp_dir, name)
        out.append(("spectrum", path))
        out += [("classify", path, "--alpha", alpha) for alpha in ALPHAS]
    out += [("spectrum", os.path.join(tmp_dir, name)) for name in MALFORMED_DESCRIPTORS]
    out += UNREAD_FLAGS
    out.append(OVERSIZED_GRID)
    out += BLOCK_SEAMS
    out += [("spectrum", os.path.join(tmp_dir, name)) for name in NEAR_EQUAL_DESCRIPTORS]
    out += [("threshold", os.path.join(tmp_dir, OVERFLOW_SUM_DESCRIPTOR)),
            ("spectrum", os.path.join(tmp_dir, BOM_DESCRIPTOR))]
    out += [("spectrum", os.path.join(tmp_dir, name)) for name in IDENTITY_FAULTS]
    out += UNEQUAL_SEAMS
    out += EXTREME_SWEEPS
    out += MAP_EDGES
    out += WARM_MODELS
    out += SPLIT_BLOCKS
    out += UNMAPPED_PAIRS
    out += FALLBACK_FORMS
    out += [("oracle", os.path.join(tmp_dir, name), "--alpha", alpha,
             "--samples", samples, "--seed", seed)
            for name, alphas, runs in ORACLE_WIDTH_RUNS
            for alpha in alphas for samples, seed in runs]
    out += [("spectrum", os.path.join(tmp_dir, name))
            for name in (*READ_EDGE_DESCRIPTORS, READ_EDGE_DIRECTORY)]
    out += FALSIFY_SWEEPS
    out += TIE_SWEEPS
    return out


def run_one(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        code = run(list(argv))
    try:
        stdout = _without_timing(json.loads(out.getvalue()))
    except json.JSONDecodeError:
        stdout = out.getvalue()
    raw = SECONDS.sub('"seconds": 0', out.getvalue())
    return {"exit": code, "stdout": stdout, "stdout_text": raw, "stderr": err.getvalue()}


def run_all():
    """Run the command set from the repo root, with the generated
    descriptors in a temporary directory; returns one record per command."""
    os.chdir(REPO)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        generated = {LINE_DESCRIPTOR: LINE_TEXT, **OVERFLOW_DESCRIPTORS, **SCALED_DESCRIPTORS,
                     **NARY_DESCRIPTORS, **MALFORMED_DESCRIPTORS, **NEAR_EQUAL_DESCRIPTORS,
                     **EDGE_DESCRIPTORS, **IDENTITY_FAULTS, **ORACLE_WIDTH_DESCRIPTORS}
        for name, text in generated.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for name, data in READ_EDGE_DESCRIPTORS.items():
            Path(tmp, name).write_bytes(data)
        Path(tmp, READ_EDGE_DIRECTORY).mkdir()
        for argv in commands(tmp):
            record = run_one(argv)
            record["argv"] = " ".join(argv).replace(tmp, "<tmp>")
            # a read error names the file
            record["stderr"] = record["stderr"].replace(tmp, "<tmp>")
            records.append(record)
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write")
    args = parser.parse_args()
    out_path = Path(args.out).resolve()
    records = run_all()
    out_path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} commands, exit codes "
          f"{sorted({r['exit'] for r in records})}, written to {out_path}")


if __name__ == "__main__":
    main()

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
values, one more than the sweep sample bound allows.
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
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

from secondkind.cli import run

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
                     **NARY_DESCRIPTORS, **MALFORMED_DESCRIPTORS}
        for name, text in generated.items():
            Path(tmp, name).write_text(text)
        for argv in commands(tmp):
            record = run_one(argv)
            record["argv"] = " ".join(argv).replace(tmp, "<tmp>")
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check pins the tolerance it enforces.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from secondkind.curvature import (
    einstein_constant,
    constant_sectional,
    flat_tensor,
    kahler_space_form,
    product,
    random_curvature,
    random_kahler_curvature,
    scalar,
    space_form,
)
from secondkind.numerics import cluster_spectrum
from secondkind.operator2k import (
    alpha_sum,
    bruteforce_min_alpha_sum,
    classify,
    nonneg_threshold,
    operator_matrix,
    spectrum,
)
from secondkind.rigidity import a_const, b_const, check_rigidity
from secondkind.sym2 import product_adapted_basis, sym2_dim

from reference import f_lemma, negate_spectrum

REPO = Path(__file__).resolve().parents[1]


def report_line(number, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} [{status}]: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_example_table():
    proc = subprocess.run(
        [sys.executable, "-m", "secondkind", "examples"],
        capture_output=True, text=True, cwd=REPO,
    )
    ok = proc.returncode == 0
    extra = ""
    if ok:
        out = json.loads(proc.stdout)
        ok = out["all_match"] and out["family_count"] == 13
        cases = sum(f["cases_run"] for f in out["families"])
        extra = f"13 families, {cases} cases, value tol 1e-9, multiplicities exact"
    report_line(1, "model-family spectra match closed forms and examples exits 0", ok, extra)


def _random_einstein_leaf(rng):
    kind = rng.choice(["sphere", "kahler", "flat"], p=[0.5, 0.35, 0.15])
    if kind == "sphere":
        n = int(rng.integers(2, 5))
        kappa = float(rng.uniform(0.3, 2.0)) * (1 if rng.random() < 0.7 else -1)
        return space_form(n, kappa), (n - 1) * kappa, n
    if kind == "kahler":
        m = int(rng.integers(1, 3))
        kappa = float(rng.uniform(0.3, 2.0)) * (1 if rng.random() < 0.7 else -1)
        r = kahler_space_form(m, kappa)
        return r, 2 * (m + 1) * kappa, 2 * m
    n = int(rng.integers(1, 4))
    return flat_tensor(n), 0.0, n


def _random_einstein_factor(rng):
    """Einstein tensor: a model leaf, or a product of two leaves tuned to a
    common Einstein constant."""
    if rng.random() < 0.35:
        r1, rho, n1 = _random_einstein_leaf(rng)
        if rho == 0.0:
            n2 = int(rng.integers(1, 4))
            return product(r1, flat_tensor(n2)), 0.0
        if rng.random() < 0.5:
            n2 = int(rng.integers(2, 4))
            r2 = space_form(n2, rho / (n2 - 1))
        else:
            m2 = int(rng.integers(1, 3))
            r2 = kahler_space_form(m2, rho / (2 * (m2 + 1)))
        return product(r1, r2), rho
    r, rho, _ = _random_einstein_leaf(rng)
    return r, rho


def _spectrum_values(r):
    if r.dim < 2:
        return np.zeros(0)
    return spectrum(r)


def test_criterion_02_product_spectrum_rule():
    rng = np.random.default_rng(20240202)
    worst = 0.0
    pairs = 0
    while pairs < 50:
        r1, rho1 = _random_einstein_factor(rng)
        r2, rho2 = _random_einstein_factor(rng)
        if r1.dim + r2.dim > 10 or r1.dim + r2.dim < 3:
            continue
        pairs += 1
        assert einstein_constant(r1) is not None and einstein_constant(r2) is not None
        n1, n2 = r1.dim, r2.dim
        zeta = -(n2 * rho1 + n1 * rho2) / (n1 + n2)
        predicted = np.sort(np.concatenate([
            _spectrum_values(r1), _spectrum_values(r2), np.zeros(n1 * n2), [zeta],
        ]))
        computed = spectrum(product(r1, r2))
        worst = max(worst, float(np.abs(computed - predicted).max()))
    report_line(2, "Einstein product spectra equal the factor/zero/trace multiset",
                worst <= 1e-9, f"50 pairs, worst deviation {worst:.2e}, tol 1e-9")


def test_criterion_03_mixed_block_kernel():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        r1 = random_curvature(n1, int(rng.integers(0, 2 ** 63)))
        r2 = random_curvature(n2, int(rng.integers(0, 2 ** 63)))
        basis = product_adapted_basis(n1, n2)
        mat = operator_matrix(product(r1, r2), basis)
        # layout [N1 | N2 | n1 n2 | 1]: the mixed rows sit before zeta
        xi_rows = mat[sym2_dim(n1) + sym2_dim(n2):-1]
        worst = max(worst, float(np.linalg.norm(xi_rows, axis=1).max()))
    report_line(3, "mixed-product directions lie in the operator kernel",
                worst < 1e-10, f"100 pairs, worst row norm {worst:.2e}, tol 1e-10")


def test_criterion_04_line_thresholds():
    worst = 0.0
    worst_g = 0.0
    for n in range(4, 11):
        expected = n + (n - 2) / n
        s_pos = spectrum(product(space_form(n - 1, 1.0), flat_tensor(1)))
        thr = nonneg_threshold(s_pos)
        worst = max(worst, abs(thr - expected))
        worst_g = max(worst_g, abs(alpha_sum(s_pos, a_const(n - 1, 1))))
        s_neg = spectrum(product(space_form(n - 1, -1.0), flat_tensor(1)))
        thr_neg = nonneg_threshold(negate_spectrum(s_neg))
        worst = max(worst, abs(thr_neg - expected))
    ok = worst <= 1e-9 and worst_g <= 1e-12
    report_line(4, "one-flat-direction thresholds equal n + (n-2)/n for n=4..10",
                ok, f"threshold dev {worst:.2e} (tol 1e-9), g dev {worst_g:.2e} (tol 1e-12)")


def test_criterion_05_product_sphere_thresholds():
    worst_thr = 0.0
    worst_g = 0.0
    for n1 in range(2, 6):
        for n2 in range(n1, 6):
            expected = a_const(n1, n2)
            s = spectrum(product(space_form(n1, 1.0), space_form(n2, 1.0)))
            thr = nonneg_threshold(s)
            worst_thr = max(worst_thr, abs(thr - expected))
            worst_g = max(worst_g, abs(alpha_sum(s, expected)))
    ok = worst_thr <= 1e-9 and worst_g <= 1e-12
    report_line(5, "equal-curvature sphere products hit the optimal constant",
                ok, f"threshold dev {worst_thr:.2e} (tol 1e-9), g dev {worst_g:.2e} (tol 1e-12)")


def test_criterion_06_equal_curvature_iff():
    grid = [0.25 * k for k in range(1, 9)]
    mismatches = 0
    total = 0
    for n1, n2 in [(2, 2), (2, 3), (3, 3), (2, 5)]:
        alpha = a_const(n1, n2)
        for k1 in grid:
            for k2 in grid:
                total += 2
                v = classify(product(space_form(n1, k1), space_form(n2, k2)), alpha)
                if (v == "nonnegative") != (k1 == k2):
                    mismatches += 1
                v = classify(product(space_form(n1, -k1), space_form(n2, -k2)), alpha)
                if (v == "nonpositive") != (k1 == k2):
                    mismatches += 1
    report_line(6, "sphere/hyperbolic products classify at the constant iff curvatures match",
                mismatches == 0, f"{total} classifications, {mismatches} mismatches")


def test_criterion_07_oracle_consistency():
    rng = np.random.default_rng(707)
    worst_eigen = 0.0
    floor_ok = True
    for case in range(20):
        n = 4 if case % 2 == 0 else 5
        r = random_curvature(n, int(rng.integers(0, 2 ** 63)))
        s = spectrum(r)
        for alpha in (1.0, 2.5, float(n), float(len(s))):
            result = bruteforce_min_alpha_sum(r, alpha, samples=500,
                                              seed=int(rng.integers(0, 2 ** 63)))
            expected = alpha_sum(s, alpha)
            worst_eigen = max(worst_eigen, abs(result.sample_values[0] - expected))
            floor_ok = floor_ok and all(v >= expected - 1e-8 for v in result.sample_values)
    ok = worst_eigen <= 1e-9 and floor_ok
    report_line(7, "random-basis sampling never beats the eigenvalue sum",
                ok, f"20 tensors x 4 alphas x 500 samples, eigenbasis dev {worst_eigen:.2e}")


def test_criterion_08_trace_identity():
    tensors = [
        space_form(3, 1.0), space_form(4, -0.5), space_form(6, 2.0),
        kahler_space_form(1, 1.0), kahler_space_form(2, -1.5),
        kahler_space_form(3, 0.7),
        flat_tensor(4),
        product(space_form(2, 1.0), space_form(3, -1.0)),
        product(kahler_space_form(2, 1.0), flat_tensor(2)),
        product(space_form(3, 1.0), flat_tensor(1)),
        random_kahler_curvature(2, seed=88),
    ]
    rng = np.random.default_rng(808)
    for _ in range(100):
        tensors.append(random_curvature(int(rng.integers(2, 6)),
                                        int(rng.integers(0, 2 ** 63))))
    worst = 0.0
    for r in tensors:
        n = r.dim
        total = spectrum(r).sum()
        worst = max(worst, abs(total - (n + 2) / (2.0 * n) * scalar(r)))
    report_line(8, "eigenvalue sums equal (n+2)/(2n) times the scalar curvature",
                worst <= 1e-9, f"{len(tensors)} tensors, worst deviation {worst:.2e}, tol 1e-9")


def test_criterion_09_averaging_lemma_suite():
    rng = np.random.default_rng(909)
    ok = True
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(2, 51))
        values = rng.uniform(-10, 10, size)
        mean = values.mean()
        xs = [1.0, 1.0 + 0.37 * (size - 1), float(size - 1), float(size)]
        for x in xs:
            checked += 1
            fx = f_lemma(values, x)
            ok = ok and fx <= x * mean + 1e-12 * max(1.0, abs(x * mean))
            # equality below the top only for constant multisets
            if x <= size - 1:
                ok = ok and fx < x * mean
        constant = np.full(size, float(rng.uniform(-5, 5)))
        for x in xs:
            checked += 1
            ok = ok and abs(f_lemma(constant, x) - x * constant[0]) <= 1e-12 * max(
                1.0, abs(x * constant[0]))
    report_line(9, "averaging-lemma bound and both equality directions hold",
                ok, f"1000 multisets, {checked} evaluations")


def test_criterion_10_line_falsification():
    rng = np.random.default_rng(1010)
    bad = 0
    skipped = 0
    for n in (4, 5):
        alpha = a_const(n - 1, 1)
        for _ in range(100):
            r1 = random_curvature(n - 1, int(rng.integers(0, 2 ** 63)))
            if constant_sectional(r1) is not None:
                skipped += 1
                continue
            verdict = classify(product(r1, flat_tensor(1)), alpha)
            if verdict in ("nonnegative", "nonpositive"):
                bad += 1
    report_line(10, "non-constant factors never pass the one-flat-direction threshold",
                bad == 0, f"200 samples at n=4, 5; {bad} false passes, {skipped} skipped")


def test_criterion_11_kahler_product_checks():
    ok = True
    details = []
    for m1, m2 in [(1, 1), (1, 2), (2, 2)]:
        r1 = kahler_space_form(m1, 1.0)
        r2 = kahler_space_form(m2, 1.0)
        r = product(r1, r2)
        verdict = classify(r, b_const(m1, m2))
        ok = ok and verdict == "nonnegative"
        # closed-form spectrum of the complex product family
        expected = []
        for m, kappa in ((m1, 1.0), (m2, 1.0)):
            if m > 1:
                expected.append((-2 * kappa, (m - 1) * (m + 1)))
            expected.append((4 * kappa, m * (m + 1)))
        expected.append((0.0, 4 * m1 * m2))
        expected.append((-(2 * m1 * (m2 + 1) + 2 * m2 * (m1 + 1)) / (m1 + m2), 1))
        merged = {}
        for value, mult in expected:
            key = round(value, 9)
            merged[key] = merged.get(key, 0) + mult
        computed = cluster_spectrum(spectrum(r))
        match = len(computed) == len(merged) and all(
            any(abs(v - ev) <= 1e-9 and m == em for ev, em in merged.items())
            for v, m in computed
        )
        ok = ok and match
        details.append(f"({m1},{m2}):{verdict}")
    sweep = check_rigidity("iff-kahler", {"m1": 1, "m2": 1}, tol=1e-9)
    completed = sweep.verdict in ("consistent", "violated") and sweep.samples_run == 128
    ok = ok and completed
    report_line(
        11, "complex products pass the one-direction checks; iff sweep recorded",
        ok,
        f"{' '.join(details)}; sweep verdict {sweep.verdict} with "
        f"{len(sweep.findings)} findings (recorded, not asserted)",
    )

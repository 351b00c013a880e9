"""Rigidity constants and randomized verification harnesses.

The harnesses are falsification suites: they sample seeded random tensors
and report ``consistent`` when no counterexample was found, never claiming a
proof. The iff sweeps compare computed verdicts against the equal-curvature
predicate and record disagreements as findings with full diagnostics rather
than treating them as failures.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    constant_holomorphic,
    constant_sectional,
    einstein_constant,
    flat_tensor,
    kahler_space_form,
    product,
    random_curvature,
    random_kahler_curvature,
    space_form,
)
from .errors import InvalidInputError
from .operator2k import (
    VERDICT_BOTH,
    VERDICT_NEITHER,
    VERDICT_NONNEGATIVE,
    VERDICT_NONPOSITIVE,
    alpha_sum,
    classify,
    negate_spectrum,
    nonneg_threshold,
    operator_matrix,
    spectrum,
    weighted_partial_sums,
)
from .sym2 import LABEL_XI, empty_basis, product_adapted_basis, standard_basis, sym2_dim

_SEED_MASK = (1 << 64) - 1

DEFAULT_KAPPA_GRID = tuple(0.25 * k for k in range(1, 9))

HARNESS_CASES = ("line", "product-spheres", "product-kahler", "iff-spheres", "iff-kahler")


def a_const(n1, n2):
    """Optimal threshold constant for products of real factors:
    1 + n1*n2 + (n1(n2-1) + n2(n1-1)) / (n1+n2)."""
    if n1 < 1 or n2 < 1:
        raise InvalidInputError("factor dimensions must be positive")
    return 1.0 + n1 * n2 + (n1 * (n2 - 1) + n2 * (n1 - 1)) / (n1 + n2)


def b_const(m1, m2):
    """Optimal threshold constant for products of complex factors:
    4 m1 m2 + 3/2 (m1^2 + m2^2) + m1 m2 / (m1+m2)."""
    if m1 < 1 or m2 < 1:
        raise InvalidInputError("complex factor dimensions must be positive")
    return 4.0 * m1 * m2 + 1.5 * (m1 * m1 + m2 * m2) + (m1 * m2) / (m1 + m2)


def f_lemma(values, x):
    """Weighted partial sum of the x smallest values of a multiset.

    On the ascending sort, sums the first floor(x) entries plus the
    fractional remainder times the next one; bounded above by x times the
    mean, with equality below the full count only for constant multisets.
    """
    vals = np.sort(np.asarray(list(values), dtype=float))
    if len(vals) == 0:
        raise InvalidInputError("the multiset must be nonempty")
    return float(weighted_partial_sums(vals, x))


@dataclass
class HarnessReport:
    """Outcome of one verification harness run.

    ``counterexamples`` are violations of claims the artifact asserts;
    ``findings`` are informational records of conjectured statements that the
    computation contradicts. The verdict is ``violated`` exactly when the
    counterexample list is nonempty.
    """

    harness: str
    parameters: dict
    samples_run: int
    counterexamples: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    verdict: str = "consistent"
    details: dict = field(default_factory=dict)

    def finalize(self):
        applicable = any(v != "not-applicable" for v in self.details.values()
                         if isinstance(v, str))
        if self.counterexamples:
            self.verdict = "violated"
        elif applicable or self.samples_run > 0:
            self.verdict = "consistent"
        else:
            self.verdict = "not-applicable"
        return self

    def to_dict(self):
        return {
            "harness": self.harness,
            "parameters": self.parameters,
            "samples_run": self.samples_run,
            "counterexamples": self.counterexamples,
            "findings": self.findings,
            "verdict": self.verdict,
            "details": self.details,
        }


def _factor_spectrum_values(r):
    if r.dim < 2:
        return np.zeros(0)
    return spectrum(r).eigenvalues


def verify_product_structure(r1, r2, tol=1e-9):
    """Check the adapted-basis block structure of a product operator.

    Always checks that the mixed-product rows of the operator matrix vanish.
    When both factors are Einstein, additionally checks block diagonality
    against the factor operator matrices, the trace-difference diagonal
    entry, and the multiset spectrum identity; those checks report
    not-applicable otherwise.
    """
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise InvalidInputError(f"tolerance must be positive and finite, got {tol}")
    n1, n2 = r1.dim, r2.dim
    b1 = standard_basis(n1) if n1 >= 2 else empty_basis(n1)
    b2 = standard_basis(n2) if n2 >= 2 else empty_basis(n2)
    adapted = product_adapted_basis(n1, n2, b1, b2)
    r = product(r1, r2)
    mat = operator_matrix(r, adapted)

    report = HarnessReport(
        harness="product-structure",
        parameters={"n1": n1, "n2": n2, "tol": tol},
        samples_run=1,
    )

    xi_rows = adapted.indices_with_label(LABEL_XI)
    xi_norm = float(np.linalg.norm(mat[xi_rows], axis=1).max()) if xi_rows else 0.0
    report.details["xi_row_max_norm"] = xi_norm
    if xi_norm <= tol:
        report.details["xi_block"] = "consistent"
    else:
        report.details["xi_block"] = "violated"
        report.counterexamples.append(
            {"check": "xi_block", "max_row_norm": xi_norm, "tol": tol}
        )

    rho1 = einstein_constant(r1)
    rho2 = einstein_constant(r2)
    report.details["einstein_constants"] = [rho1, rho2]
    if rho1 is None or rho2 is None:
        report.details["einstein_blocks"] = "not-applicable"
        report.details["spectrum_multiset"] = "not-applicable"
        return report.finalize()

    n1_count, n2_count = b1.count, b2.count
    zeta_expected = -(n2 * rho1 + n1 * rho2) / (n1 + n2)
    expected = np.zeros_like(mat)
    if n1_count:
        expected[:n1_count, :n1_count] = operator_matrix(r1, b1)
    if n2_count:
        expected[n1_count:n1_count + n2_count, n1_count:n1_count + n2_count] = (
            operator_matrix(r2, b2)
        )
    expected[-1, -1] = zeta_expected
    block_dev = float(np.abs(mat - expected).max())
    report.details["zeta_entry"] = float(mat[-1, -1])
    report.details["zeta_expected"] = zeta_expected
    report.details["block_max_deviation"] = block_dev
    if block_dev <= tol:
        report.details["einstein_blocks"] = "consistent"
    else:
        report.details["einstein_blocks"] = "violated"
        report.counterexamples.append(
            {"check": "einstein_blocks", "max_deviation": block_dev, "tol": tol}
        )

    predicted = np.sort(np.concatenate([
        _factor_spectrum_values(r1),
        _factor_spectrum_values(r2),
        np.zeros(n1 * n2),
        np.array([zeta_expected]),
    ]))
    computed = spectrum(r).eigenvalues
    multiset_dev = float(np.abs(computed - predicted).max())
    report.details["spectrum_max_deviation"] = multiset_dev
    if multiset_dev <= tol:
        report.details["spectrum_multiset"] = "consistent"
    else:
        report.details["spectrum_multiset"] = "violated"
        report.counterexamples.append(
            {"check": "spectrum_multiset", "max_deviation": multiset_dev, "tol": tol}
        )
    return report.finalize()


def check_rigidity(case, params=None, seed=0, samples=200, tol=1e-9):
    """Run one of the rigidity harnesses and return its report.

    Cases: ``line`` (one flat direction), ``product-spheres``,
    ``product-kahler``, ``iff-spheres``, ``iff-kahler``.
    """
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise InvalidInputError(f"tolerance must be positive and finite, got {tol}")
    if samples < 0:
        raise InvalidInputError("sample count must be nonnegative")
    params = dict(params or {})
    if case == "line":
        return _check_line(params, seed, samples, tol)
    if case == "product-spheres":
        return _check_product_spheres(params, seed, samples, tol)
    if case == "product-kahler":
        return _check_product_kahler(params, seed, samples, tol)
    if case == "iff-spheres":
        return _check_iff_spheres(params, tol)
    if case == "iff-kahler":
        return _check_iff_kahler(params, tol)
    raise InvalidInputError(f"unknown harness case {case!r}; expected one of {HARNESS_CASES}")


def _detector_sign_ok(value, direction, tol):
    if value is None:
        return False
    if direction == VERDICT_NONNEGATIVE:
        return value >= -tol
    return value <= tol


def _check_line(params, seed, samples, tol):
    n = int(params.pop("n", 4))
    if params:
        raise InvalidInputError(f"unexpected line parameters: {sorted(params)}")
    if n < 4:
        raise InvalidInputError("the line harness needs total dimension at least 4")
    alpha = a_const(n - 1, 1)
    report = HarnessReport(
        harness="line",
        parameters={"n": n, "alpha": alpha, "seed": seed, "samples": samples, "tol": tol},
        samples_run=samples,
    )

    model = product(space_form(n - 1, 1.0), flat_tensor(1))
    s_model = spectrum(model)
    thr = nonneg_threshold(s_model)
    report.details["model_threshold"] = thr
    report.details["model_alpha_sum"] = alpha_sum(s_model, alpha)
    model_ok = (
        thr is not None
        and abs(thr - alpha) <= tol
        and abs(alpha_sum(s_model, alpha)) <= 1e-12
    )
    # negative-curvature dual: threshold of the negated spectrum matches
    thr_neg = nonneg_threshold(negate_spectrum(spectrum(
        product(space_form(n - 1, -1.0), flat_tensor(1)))))
    report.details["model_threshold_nonpositive_dual"] = thr_neg
    model_ok = model_ok and thr_neg is not None and abs(thr_neg - alpha) <= tol
    report.details["model_check"] = "consistent" if model_ok else "violated"
    if not model_ok:
        report.counterexamples.append({"check": "model", "threshold": thr, "alpha": alpha})

    for idx in range(samples):
        sample_seed = (int(seed) ^ idx) & _SEED_MASK
        r1 = random_curvature(n - 1, sample_seed)
        verdict = classify(product(r1, flat_tensor(1)), alpha, tol)
        if verdict == VERDICT_NEITHER:
            continue
        c = constant_sectional(r1)
        if verdict == VERDICT_BOTH:
            ok = c is not None and abs(c) <= tol
        elif verdict == VERDICT_NONNEGATIVE:
            ok = _detector_sign_ok(c, VERDICT_NONNEGATIVE, tol)
        else:
            ok = _detector_sign_ok(c, VERDICT_NONPOSITIVE, tol)
        if not ok:
            report.counterexamples.append({
                "check": "random", "sample": idx, "seed": sample_seed,
                "verdict": verdict, "constant_sectional": c,
            })
    return report.finalize()


def _check_product_spheres(params, seed, samples, tol):
    n1 = int(params.pop("n1", 2))
    n2 = int(params.pop("n2", 2))
    if params:
        raise InvalidInputError(f"unexpected product-spheres parameters: {sorted(params)}")
    if n1 < 2 or n2 < 2:
        raise InvalidInputError("both factor dimensions must be at least 2")
    alpha = a_const(n1, n2)
    report = HarnessReport(
        harness="product-spheres",
        parameters={"n1": n1, "n2": n2, "alpha": alpha, "seed": seed,
                    "samples": samples, "tol": tol},
        samples_run=samples,
    )

    model = product(space_form(n1, 1.0), space_form(n2, 1.0))
    s_model = spectrum(model)
    thr = nonneg_threshold(s_model)
    report.details["model_threshold"] = thr
    report.details["model_alpha_sum"] = alpha_sum(s_model, alpha)
    model_ok = (
        thr is not None
        and abs(thr - alpha) <= tol
        and abs(alpha_sum(s_model, alpha)) <= 1e-12
        and classify(model, alpha, tol) == VERDICT_NONNEGATIVE
        and classify(-model, alpha, tol) == VERDICT_NONPOSITIVE
    )
    # below the constant the non-flat model must classify as neither
    probe = alpha - min(0.5, (alpha - 1.0) / 2.0)
    probe_verdict = classify(model, probe, tol)
    report.details["flatness_probe_alpha"] = probe
    report.details["flatness_probe_verdict"] = probe_verdict
    model_ok = model_ok and probe_verdict == VERDICT_NEITHER
    report.details["model_check"] = "consistent" if model_ok else "violated"
    if not model_ok:
        report.counterexamples.append({"check": "model", "threshold": thr, "alpha": alpha})

    for idx in range(samples):
        s1 = (int(seed) ^ (2 * idx)) & _SEED_MASK
        s2 = (int(seed) ^ (2 * idx + 1)) & _SEED_MASK
        r1 = random_curvature(n1, s1)
        r2 = random_curvature(n2, s2)
        verdict = classify(product(r1, r2), alpha, tol)
        if verdict == VERDICT_NEITHER:
            continue
        c1 = constant_sectional(r1)
        c2 = constant_sectional(r2)
        matched = c1 is not None and c2 is not None and abs(c1 - c2) <= 1e-6
        if verdict == VERDICT_BOTH:
            ok = matched and abs(c1) <= tol
        elif verdict == VERDICT_NONNEGATIVE:
            ok = matched and c1 >= -tol
        else:
            ok = matched and c1 <= tol
        if not ok:
            report.counterexamples.append({
                "check": "random", "sample": idx, "seeds": [s1, s2],
                "verdict": verdict, "constants": [c1, c2],
            })
    return report.finalize()


def _check_product_kahler(params, seed, samples, tol):
    m1 = int(params.pop("m1", 1))
    m2 = int(params.pop("m2", 1))
    if params:
        raise InvalidInputError(f"unexpected product-kahler parameters: {sorted(params)}")
    if m1 < 1 or m2 < 1:
        raise InvalidInputError("both complex dimensions must be at least 1")
    alpha = b_const(m1, m2)
    report = HarnessReport(
        harness="product-kahler",
        parameters={"m1": m1, "m2": m2, "alpha": alpha, "seed": seed,
                    "samples": samples, "tol": tol},
        samples_run=samples,
    )

    rk1, _ = kahler_space_form(m1, 1.0)
    rk2, _ = kahler_space_form(m2, 1.0)
    model = product(rk1, rk2)
    s_model = spectrum(model)
    thr = nonneg_threshold(s_model)
    report.details["model_threshold"] = thr
    report.details["model_alpha_sum"] = alpha_sum(s_model, alpha)
    model_ok = (
        classify(model, alpha, tol) == VERDICT_NONNEGATIVE
        and classify(-model, alpha, tol) == VERDICT_NONPOSITIVE
    )
    report.details["model_check"] = "consistent" if model_ok else "violated"
    if not model_ok:
        report.counterexamples.append({"check": "model", "alpha": alpha})

    # Probing below the constant: a verdict other than neither on the
    # non-flat model contradicts the flatness statement; record it as a
    # finding since the statement itself is in question at small m.
    if thr is not None and thr < alpha - tol:
        probe = (thr + alpha) / 2.0
        probe_verdict = classify(model, probe, tol)
        report.details["flatness_probe_alpha"] = probe
        report.details["flatness_probe_verdict"] = probe_verdict
        if probe_verdict != VERDICT_NEITHER:
            report.findings.append({
                "statement": "alpha below the product constant forces flatness",
                "m1": m1, "m2": m2, "alpha": probe, "constant": alpha,
                "model_threshold": thr, "verdict": probe_verdict,
                "note": "non-flat model space stays classified below the constant",
            })

    for idx in range(samples):
        s1 = (int(seed) ^ (2 * idx)) & _SEED_MASK
        s2 = (int(seed) ^ (2 * idx + 1)) & _SEED_MASK
        r1, j1 = random_kahler_curvature(m1, s1)
        r2, j2 = random_kahler_curvature(m2, s2)
        verdict = classify(product(r1, r2), alpha, tol)
        if verdict == VERDICT_NEITHER:
            continue
        c1 = constant_holomorphic(r1, j1)
        c2 = constant_holomorphic(r2, j2)
        present = c1 is not None and c2 is not None
        if verdict == VERDICT_BOTH:
            ok = present and abs(c1) <= tol and abs(c2) <= tol
        elif verdict == VERDICT_NONNEGATIVE:
            ok = present and c1 >= -tol and c2 >= -tol
        else:
            ok = present and c1 <= tol and c2 <= tol
        if not ok:
            report.counterexamples.append({
                "check": "random", "sample": idx, "seeds": [s1, s2],
                "verdict": verdict, "constants": [c1, c2],
            })
        elif abs(c1 - c2) > 1e-6:
            # the equal-constant clause inherits the questionable iff
            # statement; computation contradicts it at small m, so
            # disagreements are recorded verbatim rather than asserted
            report.findings.append({
                "statement": "classification at the product constant forces equal factors",
                "sample": idx, "seeds": [s1, s2],
                "verdict": verdict, "constants": [c1, c2],
            })
    return report.finalize()


def _kappa_grid(params):
    grid = params.pop("grid", None)
    if grid is None:
        return DEFAULT_KAPPA_GRID
    grid = tuple(float(g) for g in grid)
    if not grid or any(g <= 0 for g in grid):
        raise InvalidInputError("kappa grid values must be positive")
    return grid


def _check_iff_spheres(params, tol):
    n1 = int(params.pop("n1", 2))
    n2 = int(params.pop("n2", 2))
    grid = _kappa_grid(params)
    if params:
        raise InvalidInputError(f"unexpected iff-spheres parameters: {sorted(params)}")
    if n1 < 2 or n2 < 2:
        raise InvalidInputError("both factor dimensions must be at least 2")
    alpha = a_const(n1, n2)
    report = HarnessReport(
        harness="iff-spheres",
        parameters={"n1": n1, "n2": n2, "alpha": alpha, "grid": list(grid), "tol": tol},
        samples_run=0,
    )
    for k1 in grid:
        for k2 in grid:
            expected = k1 == k2
            v_pos = classify(product(space_form(n1, k1), space_form(n2, k2)), alpha, tol)
            if (v_pos == VERDICT_NONNEGATIVE) != expected:
                report.findings.append({
                    "family": "positive", "kappa1": k1, "kappa2": k2,
                    "verdict": v_pos, "equal_kappa": expected,
                })
            v_neg = classify(product(space_form(n1, -k1), space_form(n2, -k2)), alpha, tol)
            if (v_neg == VERDICT_NONPOSITIVE) != expected:
                report.findings.append({
                    "family": "negative", "kappa1": k1, "kappa2": k2,
                    "verdict": v_neg, "equal_kappa": expected,
                })
            report.samples_run += 2
    report.details["mismatches"] = len(report.findings)
    return report.finalize()


def _check_iff_kahler(params, tol):
    m1 = int(params.pop("m1", 1))
    m2 = int(params.pop("m2", 1))
    grid = _kappa_grid(params)
    if params:
        raise InvalidInputError(f"unexpected iff-kahler parameters: {sorted(params)}")
    if m1 < 1 or m2 < 1:
        raise InvalidInputError("both complex dimensions must be at least 1")
    alpha = b_const(m1, m2)
    report = HarnessReport(
        harness="iff-kahler",
        parameters={"m1": m1, "m2": m2, "alpha": alpha, "grid": list(grid), "tol": tol},
        samples_run=0,
    )
    for k1 in grid:
        for k2 in grid:
            expected = k1 == k2
            r1, _ = kahler_space_form(m1, k1)
            r2, _ = kahler_space_form(m2, k2)
            v_pos = classify(product(r1, r2), alpha, tol)
            if (v_pos == VERDICT_NONNEGATIVE) != expected:
                report.findings.append({
                    "family": "positive", "kappa1": k1, "kappa2": k2,
                    "verdict": v_pos, "equal_kappa": expected,
                })
            h1, _ = kahler_space_form(m1, -k1)
            h2, _ = kahler_space_form(m2, -k2)
            v_neg = classify(product(h1, h2), alpha, tol)
            if (v_neg == VERDICT_NONPOSITIVE) != expected:
                report.findings.append({
                    "family": "negative", "kappa1": k1, "kappa2": k2,
                    "verdict": v_neg, "equal_kappa": expected,
                })
            report.samples_run += 2
    report.details["mismatches"] = len(report.findings)
    return report.finalize()

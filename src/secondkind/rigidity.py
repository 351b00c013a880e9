"""Rigidity constants and randomized verification harnesses.

The harnesses are falsification suites: they sample seeded random tensors
and report ``consistent`` when no counterexample was found, never claiming a
proof. The iff sweeps compare computed verdicts against the equal-curvature
predicate and record disagreements as findings with full diagnostics rather
than treating them as failures.

Each harness is one row of a table: a product family (its dimension
parameters, the kind of its factors and their structure detector) together
with its optimal constant. One sampled loop and one iff sweep run every row.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .curvature import (
    MAX_DIM,
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
from .numerics import derived_seed, eigensolve
from .operator2k import (
    CLASSIFY_TOL,
    MAX_SAMPLES,
    NEGATED_VERDICT,
    VERDICT_BOTH,
    VERDICT_NEITHER,
    VERDICT_NONNEGATIVE,
    VERDICT_NONPOSITIVE,
    alpha_sum,
    classify,
    nonneg_threshold,
    operator_matrix,
    spectrum,
    verdict,
)
from .sym2 import product_adapted_basis, standard_basis, sym2_dim

DEFAULT_KAPPA_GRID = tuple(0.25 * k for k in range(1, 9))


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
        self.verdict = "violated" if self.counterexamples else "consistent"
        return self

    def to_dict(self):
        """The fields by name, in order; the values are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check_tol(tol):
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise InvalidInputError(f"tolerance must be positive and finite, got {tol}")


def _check_total_dim(n):
    if n > MAX_DIM:
        raise InvalidInputError(f"total dimension {n} exceeds the limit {MAX_DIM}")


def _record_check(report, check, field, value, tol):
    """Mark ``check`` consistent when ``value <= tol``; otherwise mark it
    violated and record a counterexample holding ``value`` as ``field``."""
    if value <= tol:
        report.details[check] = "consistent"
    else:
        report.details[check] = "violated"
        report.counterexamples.append({"check": check, field: value, "tol": tol})


def verify_product_structure(r1, r2, tol=CLASSIFY_TOL):
    """Check the adapted-basis block structure of a product operator.

    Always checks that the mixed-product rows of the operator matrix vanish.
    When both factors are Einstein, additionally checks block diagonality
    against the factor operator matrices, the trace-difference diagonal
    entry, and the multiset spectrum identity; those checks report
    not-applicable otherwise.
    """
    _check_tol(tol)
    n1, n2 = r1.dim, r2.dim
    _check_total_dim(n1 + n2)
    r = product(r1, r2)
    mat = operator_matrix(r, product_adapted_basis(n1, n2))
    n1_count, n2_count = sym2_dim(n1), sym2_dim(n2)

    report = HarnessReport(
        harness="product-structure",
        parameters={"n1": n1, "n2": n2, "tol": tol},
        samples_run=1,
    )

    # the n1 n2 >= 1 mixed rows sit between the factor blocks and zeta
    xi_norm = float(np.linalg.norm(mat[n1_count + n2_count:-1], axis=1).max())
    report.details["xi_row_max_norm"] = xi_norm
    _record_check(report, "xi_block", "max_row_norm", xi_norm, tol)

    rho1 = einstein_constant(r1)
    rho2 = einstein_constant(r2)
    report.details["einstein_constants"] = [rho1, rho2]
    if rho1 is None or rho2 is None:
        report.details["einstein_blocks"] = "not-applicable"
        report.details["spectrum_multiset"] = "not-applicable"
        return report.finalize()

    zeta_expected = -(n2 * rho1 + n1 * rho2) / (n1 + n2)
    expected = np.zeros_like(mat)
    # each factor's spectrum is the spectrum of its block
    factor_values = []
    for factor, start, stop in ((r1, 0, n1_count), (r2, n1_count, n1_count + n2_count)):
        if stop > start:
            block = operator_matrix(factor, standard_basis(factor.dim))
            expected[start:stop, start:stop] = block
            factor_values.append(eigensolve(block))
    expected[-1, -1] = zeta_expected
    block_dev = float(np.abs(mat - expected).max())
    report.details["zeta_entry"] = float(mat[-1, -1])
    report.details["zeta_expected"] = zeta_expected
    report.details["block_max_deviation"] = block_dev
    _record_check(report, "einstein_blocks", "max_deviation", block_dev, tol)

    predicted = np.sort(np.concatenate([
        *factor_values,
        np.zeros(n1 * n2),
        np.array([zeta_expected]),
    ]))
    computed = spectrum(r)
    multiset_dev = float(np.abs(computed - predicted).max())
    report.details["spectrum_max_deviation"] = multiset_dev
    _record_check(report, "spectrum_multiset", "max_deviation", multiset_dev, tol)
    return report.finalize()


@dataclass(frozen=True)
class _Factors:
    """How one kind of factor is modelled, sampled and recognised.

    The fields are lambdas, so the curvature helpers they call are looked
    up by name when they run, not when the table is built.
    """

    model: Callable    # (dim, kappa) -> space form of that curvature
    random: Callable   # (dim, seed) -> seeded random tensor of that kind
    detect: Callable   # tensor -> its constant (sectional or holomorphic) curvature, or None


_REAL = _Factors(
    model=lambda n, kappa: space_form(n, kappa),
    random=lambda n, seed: random_curvature(n, seed),
    detect=lambda r: constant_sectional(r),
)

_COMPLEX = _Factors(
    model=lambda m, kappa: kahler_space_form(m, kappa),
    random=lambda m, seed: random_kahler_curvature(m, seed),
    detect=lambda r: constant_holomorphic(r),
)


@dataclass(frozen=True)
class _Family:
    """One rigidity statement: a product family and its optimal constant.

    ``dims`` gives the dimensions of the curved factors. A family with one
    curved factor is the line: its product takes the flat line R as second
    factor, each sample draws one seed, and its model check reports the
    threshold of the negated model, which is the model threshold itself.

    A ``sharp`` constant is the model threshold itself: the model check
    asserts it, a classified probe below it is a counterexample, and the
    factors of a classified sample must share one constant. Otherwise the
    probe and unequal factor constants are recorded as findings.
    """

    names: tuple        # dimension parameters, each defaulting to ``least``
    least: int          # the least value of each dimension parameter
    too_small: str
    dims: Callable      # parameters -> curved factor dimensions
    total: Callable     # parameters -> total dimension of the product
    constant: Callable  # parameters -> optimal constant
    factors: _Factors
    sharp: bool
    probe: Callable     # (alpha, model threshold, tol) -> alpha below it, or None


_LINE = _Family(
    names=("n",), least=4,
    too_small="the line harness needs total dimension at least 4",
    dims=lambda p: (p["n"] - 1,),
    total=lambda p: p["n"],
    constant=lambda p: a_const(p["n"] - 1, 1),
    factors=_REAL, sharp=True,
    probe=lambda alpha, thr, tol: None,
)

_SPHERES = _Family(
    names=("n1", "n2"), least=2,
    too_small="both factor dimensions must be at least 2",
    dims=lambda p: (p["n1"], p["n2"]),
    total=lambda p: p["n1"] + p["n2"],
    constant=lambda p: a_const(p["n1"], p["n2"]),
    factors=_REAL, sharp=True,
    probe=lambda alpha, thr, tol: alpha - min(0.5, (alpha - 1.0) / 2.0),
)

_KAHLER = _Family(
    names=("m1", "m2"), least=1,
    too_small="both complex dimensions must be at least 1",
    dims=lambda p: (p["m1"], p["m2"]),
    total=lambda p: 2 * (p["m1"] + p["m2"]),
    constant=lambda p: b_const(p["m1"], p["m2"]),
    factors=_COMPLEX, sharp=False,
    probe=lambda alpha, thr, tol: (
        (thr + alpha) / 2.0 if thr is not None and thr < alpha - tol else None
    ),
)

# harness -> (family, whether it sweeps the space-form grid instead of
# sampling random factors)
_HARNESSES = {
    "line": (_LINE, False),
    "product-spheres": (_SPHERES, False),
    "product-kahler": (_KAHLER, False),
    "iff-spheres": (_SPHERES, True),
    "iff-kahler": (_KAHLER, True),
}

HARNESS_CASES = tuple(_HARNESSES)


def check_rigidity(case, params=None, seed=0, samples=200, tol=CLASSIFY_TOL):
    """Run one of the rigidity harnesses and return its report.

    Cases: ``line`` (one flat direction), ``product-spheres``,
    ``product-kahler``, ``iff-spheres``, ``iff-kahler``.
    """
    _check_tol(tol)
    if samples < 0:
        raise InvalidInputError("sample count must be nonnegative")
    if samples > MAX_SAMPLES:
        raise InvalidInputError(f"{samples} samples exceed the limit {MAX_SAMPLES}")
    if case not in _HARNESSES:
        raise InvalidInputError(f"unknown harness case {case!r}; expected one of {HARNESS_CASES}")
    family, sweep = _HARNESSES[case]
    given = dict(params or {})
    params = {name: int(given.pop(name, family.least)) for name in family.names}
    grid = _kappa_grid(given) if sweep else None
    if given:
        raise InvalidInputError(f"unexpected {case} parameters: {sorted(given)}")
    if min(params.values()) < family.least:
        raise InvalidInputError(family.too_small)
    _check_total_dim(family.total(params))
    alpha = family.constant(params)
    run = {"grid": list(grid)} if sweep else {"seed": seed, "samples": samples}
    report = HarnessReport(
        harness=case,
        parameters={**params, "alpha": alpha, **run, "tol": tol},
        samples_run=2 * len(grid) ** 2 if sweep else samples,
    )
    if sweep:
        _sweep(report, family, params, alpha, grid, tol)
    else:
        _check_model(report, family, params, alpha, tol)
        _sample(report, family, params, alpha, seed, samples, tol)
    return report.finalize()


def _product(tensors):
    if len(tensors) == 1:
        return product(tensors[0], flat_tensor(1))
    return product(*tensors)


def _model(family, params, kappas):
    return _product([family.factors.model(d, k) for d, k in zip(family.dims(params), kappas)])


def _probe(details, s, probe, tol):
    details["flatness_probe_alpha"] = probe
    details["flatness_probe_verdict"] = verdict(s, probe, tol)
    return details["flatness_probe_verdict"]


def _check_model(report, family, params, alpha, tol):
    """Solve the unit-curvature model once and take every model verdict from
    its spectrum; the negatively curved model is bitwise its negation, so it
    is nonpositive exactly when the model is nonnegative, at the same
    threshold."""
    s = spectrum(_model(family, params, (1.0, 1.0)))
    thr = nonneg_threshold(s)
    details = report.details
    details["model_threshold"] = thr
    details["model_alpha_sum"] = alpha_sum(s, alpha)
    ok = not family.sharp or (
        thr is not None
        and abs(thr - alpha) <= tol
        and abs(details["model_alpha_sum"]) <= 1e-12
    )
    if len(family.dims(params)) == 1:  # the line
        details["model_threshold_nonpositive_dual"] = thr
    else:
        ok = ok and verdict(s, alpha, tol) == VERDICT_NONNEGATIVE
    # below the constant the non-flat model should classify as neither
    probe = family.probe(alpha, thr, tol)
    if family.sharp and probe is not None:
        ok = _probe(details, s, probe, tol) == VERDICT_NEITHER and ok
    details["model_check"] = "consistent" if ok else "violated"
    if not ok:
        checked = {"threshold": thr} if family.sharp else {}
        report.counterexamples.append({"check": "model", **checked, "alpha": alpha})
    if not family.sharp and probe is not None:
        probe_verdict = _probe(details, s, probe, tol)
        if probe_verdict != VERDICT_NEITHER:
            # the flatness statement itself is in question at small m
            report.findings.append({
                "statement": "alpha below the product constant forces flatness",
                **params, "alpha": probe, "constant": alpha,
                "model_threshold": thr, "verdict": probe_verdict,
                "note": "non-flat model space stays classified below the constant",
            })


def _signs_match(v, constants, tol):
    if v == VERDICT_BOTH:
        return all(abs(c) <= tol for c in constants)
    if v == VERDICT_NONNEGATIVE:
        return all(c >= -tol for c in constants)
    return all(c <= tol for c in constants)


def _sample_record(idx, seeds, v, constants):
    if len(seeds) == 1:
        return {"sample": idx, "seed": seeds[0], "verdict": v, "constant_sectional": constants[0]}
    return {"sample": idx, "seeds": seeds, "verdict": v, "constants": constants}


def _sample(report, family, params, alpha, seed, samples, tol):
    """Classify seeded random products at the constant; a classified sample
    must have factors of constant curvature with the verdict's sign. Sample
    ``idx`` of a family with ``k`` random factors draws factor ``j`` from
    seed ``seed ^ (k * idx + j)``."""
    dims = family.dims(params)
    width = len(dims)
    kind = family.factors
    for idx in range(samples):
        seeds = [derived_seed(seed, width * idx + j) for j in range(width)]
        factors = [kind.random(d, s) for d, s in zip(dims, seeds)]
        v = classify(_product(factors), alpha, tol)
        if v == VERDICT_NEITHER:
            continue
        constants = [kind.detect(r) for r in factors]
        present = None not in constants
        spread = max(constants) - min(constants) if present else math.inf
        if family.sharp:
            # one common constant, whose sign the verdict fixes
            ok = present and spread <= 1e-6 and _signs_match(v, constants[:1], tol)
        else:
            ok = present and _signs_match(v, constants, tol)
        if not ok:
            report.counterexamples.append(
                {"check": "random", **_sample_record(idx, seeds, v, constants)})
        elif spread > 1e-6:
            # the equal-constant clause inherits the questionable iff
            # statement; computation contradicts it at small m, so
            # disagreements are recorded verbatim rather than asserted
            report.findings.append({
                "statement": "classification at the product constant forces equal factors",
                **_sample_record(idx, seeds, v, constants),
            })


def _kappa_grid(params):
    grid = params.pop("grid", None)
    if grid is None:
        return DEFAULT_KAPPA_GRID
    grid = tuple(float(g) for g in grid)
    if not grid or not all(0.0 < g < math.inf for g in grid):  # false for NaN too
        raise InvalidInputError("kappa grid values must be positive and finite")
    # a sweep classifies two models per grid pair and may hold a finding each
    samples = 2 * len(grid) ** 2
    if samples > MAX_SAMPLES:
        raise InvalidInputError(f"{samples} sweep samples exceed the limit {MAX_SAMPLES}")
    return grid


def _sweep(report, family, params, alpha, grid, tol):
    """Classify the space-form products over the grid: the positive family
    should be nonnegative, and the negative one nonpositive, exactly when
    the two curvatures are equal; each disagreement is a finding. Each grid
    point is solved and classified once: the negative model is bitwise the
    negation of the positive one, so its verdict is the negated verdict.
    Each factor's model is built once per grid value."""
    first, second = ({k: family.factors.model(d, k) for k in grid} for d in family.dims(params))
    for k1 in grid:
        for k2 in grid:
            positive = verdict(spectrum(product(first[k1], second[k2])), alpha, tol)
            for name, v, expected in (("positive", positive, VERDICT_NONNEGATIVE),
                                      ("negative", NEGATED_VERDICT[positive],
                                       VERDICT_NONPOSITIVE)):
                if (v == expected) != (k1 == k2):
                    report.findings.append({
                        "family": name, "kappa1": k1, "kappa2": k2,
                        "verdict": v, "equal_kappa": k1 == k2,
                    })
    report.details["mismatches"] = len(report.findings)

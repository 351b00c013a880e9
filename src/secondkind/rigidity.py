"""Randomized verification harnesses of the rigidity statements.

The harnesses are falsification suites: they sample seeded random tensors
and report ``consistent`` when no counterexample was found, never claiming a
proof. The iff sweeps compare verdicts against the equal-curvature predicate
and record disagreements as findings rather than treating them as failures.

Each harness is one row of a table: a product family (its dimension
parameters, the kind of its factors and their structure detector) together
with its optimal constant. One sampled loop runs every row in stacked blocks
of samples (``numerics.blocks``), each assembled on the product-adapted
basis without its mixed directions, where a product's operator is a
bordered block. By Ky Fan's minimum principle g(alpha) of a block's sorted
diagonal, with the zeros of the mixed directions, bounds g(alpha) of its
spectrum from above, and so for the negation; a sample whose two diagonal
sums lie below -tol by more than a bound on LAPACK's eigenvalue error and
the sums' rounding (``_block_verdicts``) is ``neither`` with no spectrum.
An upper bound can only show that a sum is negative, so the certificate
says nothing else: every other sample is solved in one stacked eigensolve
and classified by ``verdict``, bit for bit as if the whole block were
solved. The model checks keep the full standard-basis operator of the
unit-curvature model, the same matrix on every request of one size, so
its spectrum is solved once per process and cached read-only
(``_model_spectrum``); its verdicts are taken once per size, alpha and tol
and cached beside it (``_model_outcome``). A factor's part
of a bordered block is the operator of its checked image (``_images``) on
its standard block and zeta, by position (``_factor_directions``), linear
in its standard normal draw, one fill per factor and block. Every size
follows from the product's real dimensions (n1, n2), the line's R second,
and the factor's index j. Where the factors' maps fit ``_TENSOR_BUDGET``
(``line`` up to n = 7, the sphere products up to (5, 5) and (4, 6), the
Kahler products up to (2, 2)) a block's blocks are its draws times maps
cached once per harness size (``_factor_maps``), built from unit draws
whose images are checked once: the identity residuals of a draw's image
are the same combination of theirs. Larger sizes take the part of the
block's own draws, and the detectors read the images of a classified
sample's draws. One iff sweep decides every grid pair by the exact Ky Fan
forms of its size, read once off the closed form of ``descriptors`` with no
tensor (``_sweep_forms``): in floats where their rounding cannot decide,
and exactly elsewhere.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from .curvature import (
    DETECTOR_TOL,
    MAX_DIM,
    CurvatureTensor,
    check_identities,
    constant_holomorphic,
    constant_sectional,
    einstein_constant,
    flat_tensor,
    kahler_draw_shape,
    kahler_image,
    kahler_space_form,
    product,
    real_draw_shape,
    real_image,
    space_form,
    standard_normal_draws,
    unchecked_tensor,
)
from .descriptors import _checked_int, a_const, b_const, leaf_closed_form, product_closed_form
from .errors import InvalidInputError
from .numerics import MAX_BLOCK, _real, blocks, derived_seed, eigensolve
from .operator2k import (
    CLASSIFY_TOL,
    MAX_SAMPLES,
    VERDICT_BOTH,
    VERDICT_NEITHER,
    VERDICT_NONNEGATIVE,
    VERDICTS,
    alpha_sum,
    nonneg_threshold,
    operator_matrices,
    operator_matrix,
    spectrum,
    verdict,
    weighted_partial_sums,
)
from .sym2 import product_adapted_basis, standard_basis, sym2_dim

DEFAULT_KAPPA_GRID = tuple(0.25 * k for k in range(1, 9))
# Numbers one stack of a block of samples may hold: those of ``MAX_BLOCK``
# tensors at n = 8 (2 MB). A sample's factor draws, its factors' images and
# their assembly, and its W x W bordered block each hold at most n^4
# numbers, n the total dimension, so a block holds this over n^4 samples,
# down to one from n = 20 on. A harness size's factor maps (``_factor_maps``)
# are used only when each holds at most as many; they are built from blocks
# of unit draws whose images hold at most ``_MAP_BUDGET`` numbers.
_TENSOR_BUDGET = MAX_BLOCK * 8 ** 4
_MAP_BUDGET = _TENSOR_BUDGET // 16
_UNIT, _TINY = 2.0 ** -53, math.ulp(0.0)  # unit roundoff, least subnormal


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
    tol = _real("tolerance", tol)
    if not 0.0 < tol < math.inf:  # also false for NaN
        raise InvalidInputError(f"tolerance must be positive and finite, got {tol}")
    return tol


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
    tol = _check_tol(tol)
    if not (isinstance(r1, CurvatureTensor) and isinstance(r2, CurvatureTensor)):
        raise InvalidInputError("product structure needs two curvature tensors")
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

    rho1, rho2 = einstein_constant(r1), einstein_constant(r2)
    report.details["einstein_constants"] = [rho1, rho2]
    if rho1 is None or rho2 is None:
        report.details["einstein_blocks"] = "not-applicable"
        report.details["spectrum_multiset"] = "not-applicable"
        return report.finalize()

    [(_, zeros), (zeta_expected, _)] = product_closed_form(([], rho1, n1), ([], rho2, n2))
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

    predicted = np.sort(np.concatenate([*factor_values, np.zeros(zeros), [zeta_expected]]))
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
    leaf: Callable     # (dim, kappa) -> (clusters, rho, real dim) of that model, in kappa's type
    real: Callable     # dim -> real dimension
    shape: Callable    # dim -> shape of one random tensor's standard normal draw
    image: Callable    # (dim, draws) -> unchecked random tensors of those draws, linear in them
    detect: Callable   # tensor -> its constant (sectional or holomorphic) curvature, or None


_REAL = _Factors(
    model=lambda n, kappa: space_form(n, kappa),
    leaf=lambda n, kappa: leaf_closed_form("sphere", n, kappa),
    real=lambda n: n,
    shape=lambda n: real_draw_shape(n),
    image=lambda n, w: real_image(w, n),
    detect=lambda r: constant_sectional(r),
)

_COMPLEX = _Factors(
    model=lambda m, kappa: kahler_space_form(m, kappa),
    leaf=lambda m, kappa: leaf_closed_form("cp", 2 * m, kappa),
    real=lambda m: 2 * m,
    shape=lambda m: kahler_draw_shape(m),
    image=lambda m, t: kahler_image(t),
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
    constant: Callable  # (parameters, one=1.0) -> optimal constant, in the type of one
    factors: _Factors
    sharp: bool
    probe: Callable     # (alpha, model threshold, tol) -> alpha below it, or None


_LINE = _Family(
    names=("n",), least=4,
    too_small="the line harness needs total dimension at least 4",
    dims=lambda p: (p["n"] - 1,),
    constant=lambda p, one=1.0: a_const(p["n"] - 1, 1, one),
    factors=_REAL, sharp=True,
    probe=lambda alpha, thr, tol: None,
)

_SPHERES = _Family(
    names=("n1", "n2"), least=2,
    too_small="both factor dimensions must be at least 2",
    dims=lambda p: (p["n1"], p["n2"]),
    constant=lambda p, one=1.0: a_const(p["n1"], p["n2"], one),
    factors=_REAL, sharp=True,
    probe=lambda alpha, thr, tol: alpha - min(0.5, (alpha - 1.0) / 2.0),
)

_KAHLER = _Family(
    names=("m1", "m2"), least=1,
    too_small="both complex dimensions must be at least 1",
    dims=lambda p: (p["m1"], p["m2"]),
    constant=lambda p, one=1.0: b_const(p["m1"], p["m2"], one),
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
    tol = _check_tol(tol)
    seed, samples = _checked_int("seed", seed), _checked_int("samples", samples)
    if samples < 0:
        raise InvalidInputError("sample count must be nonnegative")
    if samples > MAX_SAMPLES:
        raise InvalidInputError(f"{samples} samples exceed the limit {MAX_SAMPLES}")
    if not isinstance(case, str) or case not in _HARNESSES:
        raise InvalidInputError(f"unknown harness case {case!r}; expected one of {HARNESS_CASES}")
    family, sweep = _HARNESSES[case]
    if not isinstance(params or {}, Mapping):
        raise InvalidInputError(f"{case} parameters must be a mapping, got {type(params).__name__}")
    given = dict(params or {})
    params = {name: _checked_int(name, given.pop(name, family.least)) for name in family.names}
    grid = _kappa_grid(given) if sweep else None
    if given:
        raise InvalidInputError(f"unexpected {case} parameters: {sorted(given, key=str)}")
    if min(params.values()) < family.least:
        raise InvalidInputError(family.too_small)
    dims = family.dims(params)
    # the line's flat factor R is the second, of dimension 1
    n1, n2 = [family.factors.real(d) for d in dims] + [1] * (2 - len(dims))
    _check_total_dim(n1 + n2)
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
        _sample(report, family, dims, n1, n2, alpha, seed, samples, tol)
    return report.finalize()


def _product(tensors):
    if len(tensors) == 1:
        return product(tensors[0], flat_tensor(1))
    return product(*tensors)


@lru_cache(maxsize=8)
def _model_spectrum(kind, dims):
    """Read-only ascending spectrum of the unit-curvature model: the product
    of the curvature-1 models of ``kind`` of sizes ``dims``, times R for one
    factor, solved on the full standard basis once per process."""
    s = spectrum(_product([kind.model(d, 1.0) for d in dims]))
    s.flags.writeable = False
    return s


def _probe(details, s, probe, tol):
    details["flatness_probe_alpha"] = probe
    details["flatness_probe_verdict"] = verdict(s, probe, tol)
    return details["flatness_probe_verdict"]


@lru_cache(maxsize=32)
def _model_outcome(family, params, alpha, tol):
    """``(details, counterexamples, findings)`` of the model check of the
    harness size ``params`` (its items) at alpha and tol, all taken from the
    unit-curvature model's cached spectrum; the negatively curved model is
    bitwise its negation, so it is nonpositive exactly when the model is
    nonnegative, at the same threshold. Read-only by its callers."""
    params = dict(params)
    s = _model_spectrum(family.factors, family.dims(params))
    thr = nonneg_threshold(s)
    details, counterexamples, findings = {}, [], []
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
        counterexamples.append({"check": "model", **checked, "alpha": alpha})
    if not family.sharp and probe is not None:
        probe_verdict = _probe(details, s, probe, tol)
        if probe_verdict != VERDICT_NEITHER:
            # the flatness statement itself is in question at small m
            findings.append({
                "statement": "alpha below the product constant forces flatness",
                **params, "alpha": probe, "constant": alpha,
                "model_threshold": thr, "verdict": probe_verdict,
                "note": "non-flat model space stays classified below the constant",
            })
    return details, counterexamples, findings


def _clear_model_caches():
    """Empty the cached model spectra, the model outcomes read off them and
    the iff sweeps' forms."""
    _model_spectrum.cache_clear()
    _model_outcome.cache_clear()
    _sweep_forms.cache_clear()


def _check_model(report, family, params, alpha, tol):
    """Add the model check of this request's size, alpha and tol to the
    report: copies of its cached outcome (``_model_outcome``), so a report
    changed by its caller changes no other."""
    details, counterexamples, findings = _model_outcome(family, tuple(params.items()),
                                                        alpha, tol)
    report.details.update(details)
    report.counterexamples += map(dict, counterexamples)
    report.findings += map(dict, findings)


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


def _with_mixed_zeros(rows, n1, n2):
    """Ascending spectra of products from the eigenvalues ``rows`` of their
    bordered blocks and the n1 n2 exact zeros of the mixed directions
    (Golub 1973)."""
    return np.sort(np.concatenate([rows, np.zeros(rows.shape[:-1] + (n1 * n2,))], axis=-1))


def _images(kind, dim, draws):
    """Checked tensors of ``kind`` and size ``dim`` from a stack of standard
    normal ``draws``: the image and the identity check of a stack, so a
    non-finite draw fails the check."""
    images = kind.image(dim, draws)
    check_identities(images)
    return images


def _factor_directions(n1, n2, j):
    """Factor j's directions of the bordered block ``[N1 | N2 | 1]``, W =
    N1 + N2 + 1 wide, read-only: their flat entries of the W x W block and
    their tensors of ``product_adapted_basis(n1, n2)``, laid out as
    ``[N1 | N2 | n1 n2 | 1]``, restricted to the index block of factor j,
    of real dimension at least 2. By position they are its standard block
    and zeta, the directions that meet that block; the factor's part is
    its operator on the restrictions."""
    counts = (sym2_dim(n1), sym2_dim(n2))
    own = np.arange(counts[0] * j, counts[0] * j + counts[j])
    block = slice(n1 * j, n1 * j + (n1, n2)[j])
    restricted = product_adapted_basis(n1, n2).tensors[:, block, block][np.append(own, -1)]
    met = np.append(own, sum(counts))  # zeta is the block's last direction
    columns = (met[:, None] * (sum(counts) + 1) + met[None, :]).ravel()
    columns.flags.writeable = restricted.flags.writeable = False
    return columns, restricted


@lru_cache(maxsize=8)
def _factor_maps(kind, dims, n1, n2):
    """Read-only ``(columns, mapped)`` of each curved factor j, of ``kind``
    and size ``dims[j]``, or None when one would hold more than
    ``_TENSOR_BUDGET`` numbers over the whole operator: the linear map from
    the K draw entries of factor j to its part of the bordered block of a
    product of real dimensions n1, n2 at ``columns``
    (``_factor_directions``); row k of ``mapped`` is the part of the image
    of unit draw k. Every image passes ``check_identities``, which so covers
    every draw: a draw's image, and each identity residual of it, is the sum
    of w_k times the unit ones. The unit draws of one size go once, for
    every factor of that size, in ``numerics.blocks`` of ``_MAP_BUDGET``
    numbers, so that the temporaries stay small."""
    width = sym2_dim(n1) + sym2_dim(n2) + 1
    if any(math.prod(kind.shape(d)) * width ** 2 > _TENSOR_BUDGET for d in dims):
        return None
    directions = [_factor_directions(n1, n2, j) for j in range(len(dims))]
    maps = [np.empty((math.prod(kind.shape(d)), len(columns)))
            for d, (columns, _) in zip(dims, directions)]
    for d in dict.fromkeys(dims):
        shape = kind.shape(d)
        size = math.prod(shape)
        for rows in blocks(0, size, kind.real(d) ** 4, _MAP_BUDGET):
            units = np.eye(len(rows), size, rows.start).reshape((len(rows),) + shape)
            images = _images(kind, d, units)
            for j in (j for j, e in enumerate(dims) if e == d):
                maps[j][rows.start:rows.stop] = operator_matrices(
                    images, directions[j][1]).reshape(len(rows), -1)
    for mapped in maps:
        mapped.flags.writeable = False
    return tuple((columns, mapped) for (columns, _), mapped in zip(directions, maps))


def _bordered_matrices(kind, dims, draws, n1, n2, maps=None):
    """The bordered blocks ``(B, W, W)`` of the products whose curved
    factors of sizes ``dims`` are drawn as ``draws``, one stack per factor:
    the sum of each factor's part, its draws times its map of ``maps``
    (``_factor_maps``), or else taken of its images. R adds nothing."""
    width = sym2_dim(n1) + sym2_dim(n2) + 1
    mats = np.zeros((len(draws[0]), width * width))
    for j, (d, w) in enumerate(zip(dims, draws)):
        if maps:
            columns, mapped = maps[j]
            mats[:, columns] += w.reshape(len(w), -1) @ mapped
        else:
            columns, restricted = _factor_directions(n1, n2, j)
            mats[:, columns] += operator_matrices(_images(kind, d, w), restricted).reshape(
                len(w), -1)
    return mats.reshape(-1, width, width)


def _block_verdicts(mats, n1, n2, alpha, tol):
    """The verdict of each product of a block from its bordered block in
    ``mats`` ``(B, W, W)``: that of ``verdict`` on the block's eigenvalues
    with the n1 n2 mixed zeros (``_with_mixed_zeros``), where only the
    blocks that the diagonal leaves open are solved, in one stacked
    ``eigensolve`` that gives each its own bits.

    The product's operator in the adapted basis is the bordered block
    beside n1 n2 zero rows, so its diagonal is the block's with n1 n2
    zeros, N = W + n1 n2 values. By Ky Fan's minimum principle g(alpha) of
    a symmetric matrix's eigenvalues is at most g(alpha) of its sorted
    diagonal, and so for the negated matrix. LAPACK's eigenvalues of M lie
    within p(N) u ||M||_2 of the exact ones, p modestly growing (LAPACK
    Users' Guide, sec. 4.7), so sorted they move g by at most alpha times
    that (Weyl); each float g lies within gamma_N alpha max|x| and alpha
    halved subnormals of its exact value (Higham, ch. 3). With
    ||M||_2 <= W max|m_ij| and p(N) <= 28 N, the bound
    32 N W u alpha max|m_ij| + 8 alpha subnormals, over the whole stack,
    covers all of them and the rounding of the bound itself. A block whose
    two diagonal sums lie below -tol - bound is ``neither`` on its solved
    spectrum too, so it needs no spectrum; the diagonal can only bound g
    from above, so it never certifies a classified sample. A stack with a
    non-finite entry, or one large enough that a sum could overflow, is
    solved whole, for ``eigensolve`` to reject or classify as before."""
    width = mats.shape[-1]
    count = width + n1 * n2
    peak = float(np.abs(mats).max())  # NaN or inf with a non-finite entry
    rows = range(len(mats))
    if count * alpha * peak < 2.0 ** 1000:  # so no sum below overflows
        bound = 32 * count * width * _UNIT * alpha * peak + 8 * _TINY * alpha
        # the diagonal with the mixed zeros, and its negation, each sorted
        sides = np.zeros((2, len(mats), count))
        diagonal = np.diagonal(mats, axis1=-2, axis2=-1)
        sides[0, :, :width] = diagonal
        np.negative(diagonal, out=sides[1, :, :width])
        sides.sort(axis=-1)
        certified = (weighted_partial_sums(sides, alpha) < -tol - bound).all(axis=0)
        rows = [i for i, done in enumerate(certified.tolist()) if not done]
    verdicts = [VERDICT_NEITHER] * len(mats)
    if rows:
        solved = _with_mixed_zeros(eigensolve(mats[rows]), n1, n2)
        for i, v in zip(rows, verdict(solved, alpha, tol)):
            verdicts[i] = v
    return verdicts


def _sample(report, family, dims, n1, n2, alpha, seed, samples, tol):
    """Classify seeded random products of real dimensions n1, n2 at the
    constant; a classified sample must have factors of constant curvature
    with the verdict's sign. Sample ``idx`` of a family with ``k`` random
    factors, of sizes ``dims``, draws factor ``j`` from seed
    ``seed ^ (k * idx + j)``. Samples run in ``numerics.blocks`` of
    ``_TENSOR_BUDGET``, drawn by one ``standard_normal_draws`` fill per
    factor, assembled by ``_bordered_matrices`` and classified by
    ``_block_verdicts``. The maps (built for the first block, so a run
    without samples builds none) are used where they fit the budget and the
    block's draws are finite; a non-finite draw fails the check of its
    images. A classified sample's detectors read the images of its own
    draws."""
    kind = family.factors
    maps = _factor_maps(kind, dims, n1, n2) if samples else None
    for block in blocks(0, samples, (n1 + n2) ** 4, _TENSOR_BUDGET):
        seeds = [[derived_seed(seed, len(dims) * idx + j) for j in range(len(dims))]
                 for idx in block]
        draws = [standard_normal_draws(column, kind.shape(d))
                 for d, column in zip(dims, zip(*seeds))]
        finite = maps and all(np.isfinite(w).all() for w in draws)
        mats = _bordered_matrices(kind, dims, draws, n1, n2, maps if finite else None)
        verdicts = _block_verdicts(mats, n1, n2, alpha, tol)
        hits = [i for i, v in enumerate(verdicts) if v != VERDICT_NEITHER]
        images = [_images(kind, d, w[hits]) for d, w in zip(dims, draws)] if hits else []
        for row, i in enumerate(hits):
            v, idx = verdicts[i], block[i]
            constants = [kind.detect(unchecked_tensor(stack[row])) for stack in images]
            present = None not in constants
            spread = max(constants) - min(constants) if present else math.inf
            if family.sharp:
                # one common constant, whose sign the verdict fixes
                ok = present and spread <= DETECTOR_TOL and _signs_match(v, constants[:1], tol)
            else:
                ok = present and _signs_match(v, constants, tol)
            if not ok:
                report.counterexamples.append(
                    {"check": "random", **_sample_record(idx, seeds[i], v, constants)})
            elif spread > DETECTOR_TOL:
                # the equal-constant clause inherits the questionable iff
                # statement; computation contradicts it at small m, so
                # disagreements are recorded verbatim rather than asserted
                report.findings.append({
                    "statement": "classification at the product constant forces equal factors",
                    **_sample_record(idx, seeds[i], v, constants),
                })


def _kappa_grid(params):
    grid = params.pop("grid", None)
    if grid is None:
        return DEFAULT_KAPPA_GRID
    not_a_list = InvalidInputError(f"kappa grid must be a list, got {type(grid).__name__}")
    if isinstance(grid, (str, bytes, bytearray, Mapping)):  # iterable, but not of values
        raise not_a_list
    try:
        grid = tuple(_real("kappa grid value", g) for g in grid)
    except TypeError:  # not iterable
        raise not_a_list from None
    if not grid or not all(0.0 < g < math.inf for g in grid):  # false for NaN too
        raise InvalidInputError("kappa grid values must be positive and finite")
    # a sweep classifies two models per grid pair and may hold a finding each
    samples = 2 * len(grid) ** 2
    if samples > MAX_SAMPLES:
        raise InvalidInputError(f"{samples} sweep samples exceed the limit {MAX_SAMPLES}")
    return grid


@lru_cache(maxsize=8)
def _sweep_forms(family, params):
    """``(forms, floats)`` of the harness size ``params`` (its items): g of
    the product of space forms of curvatures (k1, k2), and of its negation,
    is each the least of its side's forms a k1 + b k2, K <= 2 of them at
    every size tried. ``forms`` holds each side's (a, b) in ``Fraction``,
    the shorter side padded by a repeat; ``floats``, read-only ``(2, K,
    2)``, rounds each once. Each eigenvalue is a line a k1 + b k2, read off
    ``product_closed_form`` at (1, 0) and (0, 1), so the clusters keep one
    order, a probe's, between the ratios k2/k1 > 0 where lines cross. An
    order's Ky Fan weights ``min(mult, alpha - start)``, clipped at 0, give
    a form at least g everywhere and equal to g where it sorts (Ky Fan
    1949); g is continuous, so it is the least form at every ratio."""
    from fractions import Fraction  # the sweeps alone import it

    params = dict(params)
    alpha = family.constant(params, Fraction(1))
    (one1, zero1), (one2, zero2) = ([family.factors.leaf(d, Fraction(k)) for k in (1, 0)]
                                    for d in family.dims(params))
    lines = [(a, b, mult) for (a, mult), (b, _) in zip(product_closed_form(one1, zero2),
                                                        product_closed_form(zero1, one2))]
    crossings = {(a2 - a1) / (b1 - b2) for a1, b1, _ in lines for a2, b2, _ in lines
                 if b1 != b2}
    ends = [Fraction(0), *sorted(r for r in crossings if r > 0)]
    sides = ({}, {})  # each side's distinct forms, in order
    for r in [(r + s) / 2 for r, s in zip(ends, ends[1:])] + [ends[-1] + 1]:
        ascending = sorted(lines, key=lambda line: line[0] + line[1] * r)
        negated = [(-a, -b, mult) for a, b, mult in reversed(ascending)]
        for side, ordered in zip(sides, (ascending, negated)):
            starts = accumulate((mult for _, _, mult in ordered), initial=0)
            weights = [max(0, min(mult, alpha - start))
                       for (_, _, mult), start in zip(ordered, starts)]
            side[tuple(sum(w * line[i] for w, line in zip(weights, ordered))
                       for i in (0, 1))] = None
    count = max(map(len, sides))
    forms = tuple((*side, *[next(iter(side))] * (count - len(side))) for side in sides)
    floats = np.array(forms, dtype=float)
    floats.flags.writeable = False
    return forms, floats


def _exact_g(forms, k1, k2):
    """g of each side of ``forms`` (``_sweep_forms``) at the grid pair
    (k1, k2), exactly: the least of its forms at the exact grid values."""
    from fractions import Fraction

    k1, k2 = Fraction(k1), Fraction(k2)
    return [min(a * k1 + b * k2 for a, b in side) for side in forms]


def _sweep(report, family, params, alpha, grid, tol):
    """Classify the space-form products over the grid: the positive family
    should be nonnegative, and the negative one nonpositive, exactly when
    the two curvatures are equal; each disagreement is a finding. A side's
    g is at least -tol exactly where each of its forms (``_sweep_forms``)
    is. Floats decide a pair where every form of both sides is finite and
    lies more than twice its bound from -tol, and ``_exact_g`` every other
    pair, NaN or overflow too (Shewchuk 1997). A float form rounds a and b
    once, takes two products and one sum: it is within gamma_3 (|a| k1 +
    |b| k2) <= 4 u (|a| k1 + |b| k2) of its value, plus half a subnormal
    per product (Higham, ch. 3); the bound adds 4 subnormals, and the
    factor 2 covers its own rounding and the gap's. The forms are taken in
    ``numerics.blocks`` of grid rows under their own ``np.errstate``, so
    that an overflow, a NaN or an underflow warns or raises nothing
    whatever the caller's. The findings keep the order of the pairs
    (k1, k2)."""
    forms, floats = _sweep_forms(family, tuple(params.items()))
    a, b = (floats[..., i, None, None] for i in (0, 1))  # (2, K, 1, 1)
    kappas = np.array(grid)
    # a pair's 2K form values in at most about 8 arrays at once, 1 MB a block
    for rows in blocks(0, len(grid), 4 * floats.size * len(grid), _TENSOR_BUDGET // 2):
        row_kappas = kappas[rows.start:rows.stop, None]
        with np.errstate(all="ignore"):
            values = a * row_kappas + b * kappas  # (2, K, R, G)
            bound = 4 * _UNIT * (abs(a) * row_kappas + abs(b) * kappas) + 4 * _TINY
            gap = np.abs(values + tol)
            decided = ((2 * bound < gap) & (gap < math.inf)).all(axis=(0, 1))
            signs = (values >= -tol).all(axis=1)
        for i, j in zip(*(axis.tolist() for axis in np.nonzero(~decided))):
            signs[:, i, j] = [g >= -tol for g in _exact_g(forms, grid[rows.start + i], grid[j])]
        # the positive verdict (the key ``pair``) is nonnegative exactly where
        # the negative one (the reversed key) is nonpositive, so a pair whose
        # predicate disagrees holds both findings
        mismatched = (signs[0] & ~signs[1]) != (row_kappas == kappas)
        nonneg, nonpos = signs.tolist()
        for i, j in zip(*(axis.tolist() for axis in np.nonzero(mismatched))):
            k1, k2, pair = grid[rows.start + i], grid[j], (nonneg[i][j], nonpos[i][j])
            for name, v in (("positive", VERDICTS[pair]), ("negative", VERDICTS[pair[::-1]])):
                report.findings.append({"family": name, "kappa1": k1, "kappa2": k2,
                                        "verdict": v, "equal_kappa": k1 == k2})
    report.details["mismatches"] = len(report.findings)

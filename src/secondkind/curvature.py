"""Algebraic curvature tensors: model spaces, products, contractions,
structure detectors, and seeded random generation. A tensor is checked once,
when ``CurvatureTensor`` makes it from numbers; products of checked tensors
and model tensors, a checked unit per size times the curvature, hold every
identity exactly and are not checked again.
The one complex structure is the standard J of ``standard_complex_structure``:
any orthogonal complex structure on R^{2m} is an orthogonal change of frame
away from it, which changes no spectrum, so the Kahler model, its detector
and the random Kahler tensors all use it. Components, the cached J matrices,
the cached flat tensors and unit model tensors, and the cached index tables
of the random builders are read-only.

Sign convention: ``R[i, j, i, j]`` is the sectional curvature of the
coordinate plane spanned by ``e_i`` and ``e_j``; the Ricci contraction
``Ric[j, l] = sum_i R[i, j, i, l]`` then gives ``(n-1)c * Id`` on a space of
constant curvature ``c``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .numerics import SYMMETRY_TOL, fill_standard_normal

DETECTOR_TOL = 1e-6
# Largest total dimension n taken from input: a tensor has n**4 entries and
# its operator is (n(n+1)/2 - 1) wide, 527 at n = 32.
MAX_DIM = 32


def _cyclic_part(t):
    return (t + t.transpose(2, 0, 1, 3) + t.transpose(1, 2, 0, 3)) / 3.0


@dataclass(frozen=True)
class CurvatureTensor:
    """Rank-4 tensor with all Riemann curvature symmetries, at one point."""

    components: np.ndarray

    def __post_init__(self):
        c = np.array(self.components, dtype=float, order="C")
        if c.ndim != 4 or len(set(c.shape)) != 1:
            raise InvalidInputError(f"components must have shape (n, n, n, n), got {c.shape}")
        peak = float(np.abs(c).max())
        # NaN propagates through max; a NaN or infinite entry would pass every
        # tolerance check below
        if not math.isfinite(peak):
            raise InvalidInputError("components must be finite")
        tol = SYMMETRY_TOL * max(1.0, peak)
        if float(np.abs(c + c.transpose(1, 0, 2, 3)).max()) > tol:
            raise InvalidInputError("components are not antisymmetric in the first index pair")
        if float(np.abs(c + c.transpose(0, 1, 3, 2)).max()) > tol:
            raise InvalidInputError("components are not antisymmetric in the second index pair")
        if float(np.abs(c - c.transpose(2, 3, 0, 1)).max()) > tol:
            raise InvalidInputError("components are not symmetric under index-pair exchange")
        if float(np.abs(_cyclic_part(c)).max()) > tol:
            raise InvalidInputError("components violate the first Bianchi identity")
        c.flags.writeable = False
        object.__setattr__(self, "components", c)

    @property
    def dim(self):
        return self.components.shape[0]


def _unchecked(comp):
    """``CurvatureTensor`` of a fresh float64 array that holds every identity
    by construction, marked read-only and not checked again."""
    comp.flags.writeable = False
    tensor = object.__new__(CurvatureTensor)
    object.__setattr__(tensor, "components", comp)
    return tensor


@lru_cache(maxsize=32)
def standard_complex_structure(m):
    """Read-only matrix of the complex structure J on R^{2m}, sending e_i to
    e_{m+i} and e_{m+i} to -e_i (0-based i < m); one per m."""
    if m < 1:
        raise InvalidInputError("complex dimension must be at least 1")
    j = np.zeros((2 * m, 2 * m))
    for i in range(m):
        j[m + i, i] = 1.0
        j[i, m + i] = -1.0
    j.flags.writeable = False
    return j


@lru_cache(maxsize=8)
def _unit_space_form(n):
    """Unit space form in dimension n, an exact 0/+-1 pattern built and
    checked once per n. Each entry of the two terms is one product of two
    factors, so the terms equal the einsums ik,jl / il,jk bitwise."""
    dd = np.multiply.outer(np.eye(n), np.eye(n))  # dd[i,k,j,l] = d_ik d_jl
    return CurvatureTensor(dd.transpose(0, 2, 1, 3) - dd.transpose(0, 2, 3, 1))


def _scaled(c, unit, peak):
    """The checked tensor ``float(c) * unit.components`` of a cached unit
    whose largest entry magnitude is ``peak``, not checked again.

    ``comp`` is computed first, so an overflow under a raising
    ``np.errstate`` raises ``FloatingPointError`` as it would before a check.
    The check of ``CurvatureTensor`` would accept ``comp`` exactly when
    ``abs(c) * peak`` is finite. Every unit entry is 0, +-1, +-2 or +-4,
    so each entry ``c * e`` is exact (a power of two times c, subnormal c
    included) and ``max|comp|`` is exactly ``abs(c) * peak``, or inf. Each
    antisymmetry and pair-exchange residual is ``c*e - c*e = 0``. The
    unit's cyclic sums vanish, ``a + b = -d`` with d again 0 or a power of
    two, so the partial sum ``c*a + c*b`` is the representable ``-c*d`` and
    every Bianchi residual is 0. All residuals are 0 within any tolerance,
    and only the finiteness check can fail: NaN and +-inf c, or an ``abs(c)
    * peak`` that overflows, are rejected with its message.
    """
    c = float(c)
    comp = c * unit.components
    if not math.isfinite(abs(c) * peak):
        raise InvalidInputError("components must be finite")
    return _unchecked(comp)


def space_form(n, c):
    """Constant sectional curvature c in dimension n >= 2."""
    if n < 2:
        raise InvalidInputError("space forms need dimension at least 2")
    return _scaled(c, _unit_space_form(n), 1.0)


@lru_cache(maxsize=8)
def flat_tensor(n):
    """Zero curvature tensor, checked once and shared per n; dimension 1
    models a line factor."""
    if n < 1:
        raise InvalidInputError("dimension must be positive")
    return CurvatureTensor(np.zeros((n, n, n, n)))


@lru_cache(maxsize=8)
def _unit_kahler_space_form(m):
    """Complex space form of holomorphic curvature 4 and complex dimension
    m, built and checked once per m: the unit space form's two terms, then
    the ki,lj / li,kj / ji,lk terms of the standard J as transposed views of
    one outer product. Its entries are exactly 0, +-1, +-2 and +-4 (only 0
    and +-4 at m = 1), with peak 4 at ``[i, m+i, i, m+i]``. Each entry of a
    term is one product of two factors, so the terms equal the einsums
    bitwise."""
    jm = standard_complex_structure(m)
    jj = np.multiply.outer(jm, jm)
    return CurvatureTensor(
        _unit_space_form(2 * m).components
        + jj.transpose(1, 3, 0, 2)
        - jj.transpose(1, 3, 2, 0)
        + 2.0 * jj.transpose(1, 0, 3, 2)
    )


def kahler_space_form(m, kappa):
    """Complex space form of complex dimension m, holomorphic curvature
    4*kappa, adapted to the standard J."""
    return _scaled(kappa, _unit_kahler_space_form(m), 4.0)


def product(*factors):
    """Block curvature tensor of a Riemannian product of two or more factors.

    Components with all indices inside one factor equal that factor's
    components; every mixed component is zero. The result is not checked
    again, since no re-check could fail: each residual of a block tensor is
    a factor's (same operands, same order) or exactly 0 on mixed indices,
    and the peak is the largest factor peak, so the tolerance
    ``SYMMETRY_TOL * max(1, peak)`` is at least each factor's.
    """
    if len(factors) < 2 or not all(isinstance(f, CurvatureTensor) for f in factors):
        raise InvalidInputError("a product needs two or more curvature tensors")
    n = sum(f.dim for f in factors)
    comp = np.zeros((n, n, n, n))
    start = 0
    for f in factors:
        block = slice(start, start + f.dim)
        comp[block, block, block, block] = f.components
        start += f.dim
    return _unchecked(comp)


def ricci(r):
    """Ricci contraction as a symmetric matrix."""
    return np.einsum("ijil->jl", r.components)


def scalar(r):
    """Scalar curvature (trace of Ricci)."""
    return float(np.einsum("ijij->", r.components))


def _matches(value, actual, model):
    """``value`` when ``actual`` is ``model`` within ``DETECTOR_TOL`` times
    ``max(1, max|actual|)``, else None. The detectors' models are the
    cached checked units times the curvature, the products that
    ``space_form`` and ``kahler_space_form`` return."""
    dev = float(np.abs(actual - model).max())
    if dev <= DETECTOR_TOL * max(1.0, float(np.abs(actual).max())):
        return value
    return None


def einstein_constant(r):
    """Return rho with Ric = rho * Id, or None when Ricci is not proportional.

    The deviation threshold is ``DETECTOR_TOL * max(1, ||Ric||_inf)``.
    """
    ric = ricci(r)
    rho = scalar(r) / r.dim
    return _matches(rho, ric, rho * np.eye(r.dim))


def constant_sectional(r):
    """Return c when r equals the constant-curvature model, else None."""
    n = r.dim
    if n < 2:
        return 0.0
    c = scalar(r) / (n * (n - 1))
    return _matches(c, r.components, c * _unit_space_form(n).components)


def constant_holomorphic(r):
    """Return the holomorphic sectional curvature c when r is the complex
    space form of the standard J, else None."""
    if r.dim % 2:
        raise InvalidInputError(f"a complex space form needs even dimension, got {r.dim}")
    m = r.dim // 2
    c = 4.0 * scalar(r) / (2 * m * (2 * m + 2))
    return _matches(c, r.components, (c / 4.0) * _unit_kahler_space_form(m).components)


@lru_cache(maxsize=8)
def _pair_placements(n):
    """Read-only flat indices and signs of the four antisymmetric placements
    of a bilinear form on the pairs (i, j), i < j: entry ``[s, a, b]`` is
    where ``sign[s] * w[a, b]`` lands, with pair a = (i, j) indexing the
    rows and pair b = (k, l) the columns, at (i,j,k,l), (j,i,k,l), (i,j,l,k)
    and (j,i,l,k). No two placements share an entry. One table per n."""
    i, j = np.triu_indices(n, 1)
    i, j, k, l = i[:, None], j[:, None], i[None, :], j[None, :]

    def flat(a, b, c, d):
        return ((a * n + b) * n + c) * n + d

    index = np.stack([flat(i, j, k, l), flat(j, i, k, l), flat(i, j, l, k), flat(j, i, l, k)])
    sign = np.array([1.0, -1.0, -1.0, 1.0])[:, None, None]
    index.flags.writeable = False
    sign.flags.writeable = False
    return index, sign


def random_curvature(n, seed):
    """Seeded random algebraic curvature tensor.

    Draws a symmetric bilinear form on antisymmetric index pairs, then
    removes its cyclic part so the first Bianchi identity holds exactly to
    rounding. Identical seeds give identical components.
    """
    if n < 2:
        raise InvalidInputError("random curvature tensors need dimension at least 2")
    index, sign = _pair_placements(n)
    p = index.shape[1]
    w = fill_standard_normal((seed,), np.empty((1, p, p)))[0]
    w = (w + w.T) / 2.0
    t = np.zeros((n, n, n, n))
    t.put(index, sign * w)
    return CurvatureTensor(t - _cyclic_part(t))


@lru_cache(maxsize=8)
def _j_pullbacks(m):
    """Read-only flat gather indices and +-1 signs of the three pullbacks
    by the standard J of a tensor on R^{2m}: of the first index pair, of the
    second, and of both; one table per m. With ``J e_i = sign[i] e_perm[i]``,
    pulling back the first pair reads ``t[perm[i], perm[j], k, l]`` times
    ``sign[i] sign[j]``. Products of signs are exact, so one sign per term
    gives the bits of the chained ``sign34 * (sign12 * t[...])``."""
    jm = standard_complex_structure(m)
    n = 2 * m
    perm = np.abs(jm).argmax(axis=0)
    sign = jm[perm, np.arange(n)]
    # read t as a matrix over index pairs: pair (i, j) is row i * n + j
    size = n * n
    pair = (perm[:, None] * n + perm[None, :]).ravel()
    same = np.arange(size)
    index = np.stack([
        pair[:, None] * size + same[None, :],
        same[:, None] * size + pair[None, :],
        pair[:, None] * size + pair[None, :],
    ])
    pair_sign = np.multiply.outer(sign, sign).ravel()
    sign12, sign34 = np.broadcast_arrays(pair_sign[:, None], pair_sign[None, :])
    signs = np.stack([sign12, sign34, sign12 * sign34])
    shape = (3,) + (n,) * 4
    index, signs = index.reshape(shape), signs.reshape(shape)
    index.flags.writeable = False
    signs.flags.writeable = False
    return index, signs


def _j_pair_average(t):
    """Average of t on R^{2m} over pulling back each index pair by the
    standard J.

    Each pullback is one gather of t times a +-1 sign (``_j_pullbacks``):
    exact, and bitwise equal to the contraction
    ``einsum("ai,bj,abkl->ijkl", jm, jm, t)`` without its path planning.
    """
    index, signs = _j_pullbacks(t.shape[0] // 2)
    t12, t34, tboth = signs * t.take(index)
    return (t + t12 + t34 + tboth) / 4.0


def _kahler_part(t):
    """Orthogonal projection of a pair-symmetric ``t`` onto the Kahler
    curvature tensors of the standard J: ``u - (3/2) P_J b u``
    with ``u = P_J t`` (``P_J`` the J-pair average, ``b`` the cyclic part).
    Exact because ``S = P_J b P_J`` has ``S^2 = (2/3) S`` there: ``b`` maps
    onto real (2,2)-forms ``w``, where ``<w, P_J w> = (1+1/3+1/3+1)/4 |w|^2``.
    Alternating ``P_J`` and ``I - b`` (Halperin 1962) converges at rate 1/3."""
    u = _j_pair_average(t)
    return u - 1.5 * _j_pair_average(_cyclic_part(u))


def random_kahler_curvature(m, seed):
    """Seeded random curvature tensor invariant under the standard J: one
    Gaussian draw, made pair-symmetric and projected by ``_kahler_part``."""
    standard_complex_structure(m)  # rejects m < 1 before the draw
    t = fill_standard_normal((seed,), np.empty((1,) + (2 * m,) * 4))[0]
    t = (t - t.transpose(1, 0, 2, 3)) / 2.0
    t = (t - t.transpose(0, 1, 3, 2)) / 2.0
    t = (t + t.transpose(2, 3, 0, 1)) / 2.0
    return CurvatureTensor(_kahler_part(t))

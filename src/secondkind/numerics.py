"""Dense symmetric linear algebra at small sizes.

Spectra come from LAPACK (``eigensolve``), so results are reproducible for
a given numpy/LAPACK build. LAPACK reads the symmetrized matrix, and a
matrix equal to its transpose bit for bit, as every assembled operator is,
is its own symmetrization, so it is not symmetrized again. The clusters of
a spectrum (``cluster_spectrum``) are read off a float list, which a report
shares with its thresholds. Random sampling uses a counter-based generator
(Philox) keyed by the caller's seed, so independent streams are derived by
distinct seeds rather than shared mutable state. The stream of a 64-bit
seed ``s`` is Philox with key ``(s, 0)`` from counter 0; that pair fixes the
stream completely (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11). So one shared generator, built on the first draw and re-keyed
before each draw, serves every seeded draw (``fill_standard_normal``: the
oracle's bases and the random tensors' draws), and draws bit for bit what
``seeded_stream``, the reference definition, draws. The draws are
orthonormalized by the two LAPACK gufuncs under ``np.linalg.qr``
(``_orthonormal_rows``), without its R; ``random_orthonormal_families`` adds
the sign fix that makes a basis Haar-distributed (Mezzadri, "How to generate
random matrices from the classical compact groups", Notices AMS 2007).
"""

import math
import sys
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError, InvalidInputError

SYMMETRY_TOL = 1e-12
CLUSTER_REL_TOL = 1e-7
# Most items one stacked numpy call takes: enough to spread numpy's per-call
# overhead; ``blocks`` takes fewer when the items are large.
MAX_BLOCK = 64

_SEED_MASK = (1 << 64) - 1
# the largest peak whose doubling, a + a, is exact and finite
_HALF_MAX = sys.float_info.max / 2.0


def blocks(start, stop, size, budget):
    """``range(start, stop)`` in consecutive blocks of items of ``size``
    numbers each: at most ``MAX_BLOCK`` items and ``budget`` numbers per
    block, but one item at least."""
    step = max(1, min(MAX_BLOCK, budget // size))
    return [range(i, min(i + step, stop)) for i in range(start, stop, step)]


def seeded_stream(seed):
    """Counter-based random stream for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _SEED_MASK))


def derived_seed(seed, index):
    """The 64-bit seed ``seed ^ index`` of stream ``index`` under ``seed``."""
    return (int(seed) ^ index) & _SEED_MASK


def _symmetric_operand(m):
    """The half-sum ``(a + aᵀ) / 2`` of the float form ``a`` of ``m``, a
    square matrix of dimension at least 1 or a stack of them ``(..., N, N)``,
    or ``a`` itself where the half-sum is ``a`` bit for bit: where ``a``
    equals its transpose bit for bit, as every assembled operator does, and
    its peak is at most half the largest double, so that ``a + aᵀ`` is
    exactly ``2a``. Non-finite entries raise ConvergenceError, as no
    eigensolver can return a meaningful spectrum for them; the shape and
    symmetry checks, each matrix at the tolerance of its largest entry,
    raise InvalidInputError.

    Bits, not values: a ±0.0 pair, which the half-sum makes +0.0, takes the
    half-sum, and so does a larger peak, whose overflow is raised or warned
    as before.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] < 1:
        raise InvalidInputError("matrix dimension must be at least 1")
    # NaN propagates through max, and an infinite entry makes the peak infinite
    peak = float(np.abs(a).max())
    if not math.isfinite(peak):
        raise ConvergenceError(f"matrix of dimension {a.shape[-1]} has non-finite entries")
    if peak <= _HALF_MAX:
        bits = a.view(np.int64)
        if (bits == bits.swapaxes(-1, -2)).all():
            return a
    at = a.swapaxes(-1, -2)
    dev = np.abs(a - at)
    # every tolerance is at least SYMMETRY_TOL, so only a larger deviation
    # needs the tolerance of its own matrix
    if float(dev.max()) > SYMMETRY_TOL:
        rows = (-1, a.shape[-1] ** 2)
        tol = SYMMETRY_TOL * np.maximum(1.0, np.abs(a).reshape(rows).max(axis=1))
        if (dev.reshape(rows).max(axis=1) > tol).any():
            raise InvalidInputError("matrix is asymmetric beyond 1e-12")
    return (a + at) / 2.0


def eigensolve(m, vectors=False):
    """Ascending eigenvalues of a real symmetric matrix, by LAPACK, or one
    ascending row per matrix of a stack ``(..., N, N)``; LAPACK solves the
    matrices of a stack one by one, so each row is bitwise its matrix's
    own solve.

    With ``vectors=True`` returns ``(w, q)``, the columns of ``q`` being the
    matching orthonormal eigenvectors. The input must be finite, square and
    symmetric (the checks of ``_symmetric_operand``). A matrix equal to its
    transpose bit for bit is its own symmetrization, so LAPACK reads it as
    it is, and any other its half-sum: the result is bitwise that of
    ``(m + mᵀ) / 2``. A LAPACK failure raises ConvergenceError.
    """
    a = _symmetric_operand(m)
    try:
        if vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolver failed at n={a.shape[-1]}: {exc}") from exc


@lru_cache(maxsize=1)
def _shared_philox():
    """The one Philox bit generator and its Generator, built on the first
    draw: building it imports ``numpy.random``, which the commands that
    draw nothing never pay for."""
    bitgen = np.random.Philox(key=0)
    return bitgen, np.random.Generator(bitgen)


def fill_standard_normal(seeds, out):
    """Fill ``out[i]`` with standard normal draws from the stream of
    ``seeds[i]`` alone, bitwise equal to
    ``seeded_stream(seeds[i]).standard_normal(out[i].shape)``; returns ``out``.

    The shared generator is re-keyed before each draw to the state of a
    fresh ``seeded_stream``: key ``(seed, 0)``, counter 0, empty buffer. The
    setter copies that state, and reads it fastest from Python ints, so one
    dict of lists serves every draw.
    """
    bitgen, gen = _shared_philox()
    key = [0, 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for draw, seed in zip(out, seeds):
        key[0] = int(seed) & _SEED_MASK
        bitgen.state = fresh
        gen.standard_normal(out=draw)
    return out


def _orthonormal_rows(draws):
    """Rows of the Q factor of each matrix of a stack ``draws`` ``(..., n,
    n)`` of finite doubles, with no sign fix: bitwise
    ``np.swapaxes(np.linalg.qr(draws)[0], -2, -1)``.

    Calls the two LAPACK gufuncs that ``np.linalg.qr`` calls, geqrf
    (``qr_r_raw``, in place) and then orgqr (``qr_reduced``), and skips its
    copy of the input, its R and its wrapper. ``draws`` is overwritten by
    its factorization, whose upper triangle is R. ``np.linalg.qr`` runs them
    under an ``errstate`` that turns a LAPACK failure into LinAlgError; this
    needs none, because the draws are finite and geqrf and orgqr cannot fail
    on finite input.
    """
    return np.swapaxes(_umath_linalg.qr_reduced(draws, _umath_linalg.qr_r_raw(draws)), -2, -1)


def random_orthonormal_families(n, seeds):
    """One random orthonormal basis of R^n per seed: ``n`` standard normal
    vectors, orthonormalized.

    Returns a ``(len(seeds), n, n)`` stack whose entry ``i``, one basis
    vector per row, is drawn from the stream of ``seeded_stream(seeds[i])``
    alone, so a family depends only on its own seed and not on its position
    in the stack. The draws come from ``fill_standard_normal``, the one
    shared generator re-keyed before each draw. The draws are
    orthonormalized by one stacked QR (``_orthonormal_rows``), which LAPACK
    runs matrix by matrix, so each family is bitwise equal to the one drawn
    on its own. Each row takes the sign of its diagonal entry of R, which
    makes the distribution Haar, invariant under orthogonal maps.
    """
    if n < 1:
        raise InvalidInputError("ambient dimension must be positive")
    draws = fill_standard_normal(seeds, np.empty((len(seeds), n, n)))
    rows = _orthonormal_rows(draws)
    # sign fix makes the rows agree with Gram-Schmidt on the draws' columns
    signs = np.sign(np.diagonal(draws, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    rows *= signs[:, :, None]
    return rows


def joins_cluster(previous, value):
    """Whether ``value``, next after ``previous`` in ascending order, joins
    its cluster: whether it lies at most ``CLUSTER_REL_TOL * max(1,
    |previous|)`` above it. No gap raises; the NaN gap ``inf - inf`` joins."""
    return not value - previous > CLUSTER_REL_TOL * max(1.0, abs(previous))


def _float_array(values):
    """``np.asarray(values, dtype=float)``; a value it cannot read raises InvalidInputError."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError("expected real numbers in rows of one length") from None


def _real(name, value):
    """``float(value)``, which rounds a number beyond the doubles, such as a
    huge int, to a signed inf; a value it cannot read raises InvalidInputError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        kind = type(value).__name__
        raise InvalidInputError(f"{name} must be a real number, got {kind}") from None


def _float_list(values):
    """``values`` as a list of floats: a list, taken to hold floats, as it
    is, and anything else as ``np.asarray(values, dtype=float).tolist()``,
    so the readers of one spectrum can share one list; an array that is not
    1-D, or whose entries are not real numbers, raises InvalidInputError."""
    if type(values) is list:
        return values
    values = _float_array(values)
    if values.ndim != 1:
        raise InvalidInputError(f"expected a 1-D list of eigenvalues, got shape {values.shape}")
    return values.tolist()


def cluster_spectrum(values):
    """Group an ascending list into (value, multiplicity) clusters.

    Consecutive entries join one cluster by ``joins_cluster``; the reported
    value is the cluster mean, a Python sum over the cluster divided by its
    size. ``values`` is read by ``_float_list``.
    """
    vals = _float_list(values)
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i < len(vals):
            previous, value = vals[i - 1], vals[i]
            if value < previous:
                raise InvalidInputError("values must be sorted ascending")
            if joins_cluster(previous, value):
                continue
        chunk = vals[start:i]
        clusters.append((sum(chunk) / len(chunk), len(chunk)))
        start = i
    return clusters

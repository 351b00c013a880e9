"""Dense symmetric linear algebra at small sizes.

Spectra come from LAPACK (``eigensolve``), so results are reproducible for
a given numpy/LAPACK build. Random sampling uses a counter-based generator
(Philox) keyed by the caller's seed, so independent streams are derived by
distinct seeds rather than shared mutable state. The stream of a 64-bit
seed ``s`` is Philox with key ``(s, 0)`` from counter 0; that pair fixes the
stream completely (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11). So one shared generator, built on the first draw and re-keyed
before each draw, serves every seeded draw (``fill_standard_normal``: the
oracle's bases and both random tensor builders), and draws bit for bit what
``seeded_stream``, the reference definition, draws.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, InvalidInputError

SYMMETRY_TOL = 1e-12
CLUSTER_REL_TOL = 1e-7

_SEED_MASK = (1 << 64) - 1


def seeded_stream(seed):
    """Counter-based random stream for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _SEED_MASK))


def derived_seed(seed, index):
    """The 64-bit seed ``seed ^ index`` of stream ``index`` under ``seed``."""
    return (int(seed) ^ index) & _SEED_MASK


def _checked_symmetric(m):
    """Symmetrized float copy of a finite, square, symmetric matrix of
    dimension at least 1.

    Non-finite entries raise ConvergenceError, because no eigensolver can
    return a meaningful spectrum for them; the shape and symmetry checks
    raise InvalidInputError.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInputError("matrix dimension must be at least 1")
    peak = float(np.abs(a).max())
    # NaN propagates through max, and an infinite entry makes the peak infinite
    if not math.isfinite(peak):
        raise ConvergenceError(f"matrix of dimension {a.shape[0]} has non-finite entries")
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * max(1.0, peak):
        raise InvalidInputError("matrix is asymmetric beyond 1e-12")
    return (a + a.T) / 2.0


def eigensolve(m, vectors=False):
    """Ascending eigenvalues of a real symmetric matrix, by LAPACK.

    With ``vectors=True`` returns ``(w, q)``, the columns of ``q`` being the
    matching orthonormal eigenvectors. The input must be finite, square and
    symmetric (``_checked_symmetric``); a LAPACK failure raises
    ConvergenceError.
    """
    a = _checked_symmetric(m)
    try:
        if vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigensolver failed at n={a.shape[0]}: {exc}") from exc


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


def random_orthonormal_families(n, seeds):
    """One random orthonormal basis of R^n per seed: ``n`` standard normal
    vectors, orthonormalized.

    Returns a ``(len(seeds), n, n)`` stack whose entry ``i``, one basis
    vector per row, is drawn from the stream of ``seeded_stream(seeds[i])``
    alone, so a family depends only on its own seed and not on its position
    in the stack. The draws come from ``fill_standard_normal``, the one
    shared generator re-keyed before each draw. The distribution is
    invariant under orthogonal maps. The draws are orthonormalized by one
    stacked QR, which LAPACK runs matrix by matrix, so each family is
    bitwise equal to the one drawn on its own.
    """
    if n < 1:
        raise InvalidInputError("ambient dimension must be positive")
    q, r = np.linalg.qr(fill_standard_normal(seeds, np.empty((len(seeds), n, n))))
    # sign fix makes the columns agree with Gram-Schmidt on the draws
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q *= signs[:, None, :]
    return np.swapaxes(q, -2, -1)


def cluster_spectrum(values):
    """Group an ascending list into (value, multiplicity) clusters.

    Consecutive entries closer than ``CLUSTER_REL_TOL * max(1, |previous|)``
    join the current cluster; the reported value is the cluster mean, a
    Python sum over the cluster divided by its size. No gap raises: one that
    overflows is inf, and the NaN gap ``inf - inf`` joins.
    """
    vals = np.asarray(values, dtype=float).tolist()
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i < len(vals):
            if vals[i] < vals[i - 1]:
                raise InvalidInputError("values must be sorted ascending")
            if not vals[i] - vals[i - 1] > CLUSTER_REL_TOL * max(1.0, abs(vals[i - 1])):
                continue
        chunk = vals[start:i]
        clusters.append((sum(chunk) / len(chunk), len(chunk)))
        start = i
    return clusters

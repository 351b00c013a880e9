"""The curvature operator on traceless symmetric two-tensors, as a finite
symmetric matrix: assembly, spectra, weighted partial eigenvalue sums,
fractional nonnegativity classification, and a definition-level random-basis
oracle for the classification.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import derived_seed, eigensolve, random_orthonormal_families
from .sym2 import standard_basis, sym2_dim

CLASSIFY_TOL = 1e-9

# Samples per stacked QR in the oracle: large enough to amortize the numpy
# call overhead, small enough that each stacked array stays near 0.4 MB at
# N = 27 instead of growing with the sample count. ``_oracle_block`` takes
# fewer for wider operators.
_ORACLE_BLOCK = 64
# Most samples one oracle call or one sampled rigidity harness runs; the
# oracle holds the seeds and the sorted diagonals of every sample at once,
# and a harness may hold a finding per sample.
MAX_SAMPLES = 100_000

VERDICT_NONNEGATIVE = "nonnegative"
VERDICT_NONPOSITIVE = "nonpositive"
VERDICT_BOTH = "both"
VERDICT_NEITHER = "neither"
# the verdict of the negated tensor, read from the verdict of the tensor
NEGATED_VERDICT = {
    VERDICT_NONNEGATIVE: VERDICT_NONPOSITIVE,
    VERDICT_NONPOSITIVE: VERDICT_NONNEGATIVE,
    VERDICT_BOTH: VERDICT_BOTH,
    VERDICT_NEITHER: VERDICT_NEITHER,
}


def operator_matrix(r, basis):
    """Matrix of the operator in a basis: entry [a, b] is
    ``sum R[i,j,k,l] b_a[i,l] b_b[j,k]``."""
    if basis.dim != r.dim:
        raise InvalidInputError(
            f"dimension mismatch: tensor has dim {r.dim}, basis has dim {basis.dim}"
        )
    if basis.count != sym2_dim(r.dim):
        raise InvalidInputError("basis does not span the traceless symmetric two-tensors")
    # the two matmuls that np.einsum(..., optimize=True) reduces this
    # contraction to, in its operand order, without its per-call planning:
    # t[(j,k), a] = sum_(i,l) R[i,j,k,l] b_a[i,l], then mat[a, b] = <t_a, b_b>
    n, count = r.dim, basis.count
    b = basis.tensors
    r_jk_il = r.components.transpose(1, 2, 0, 3).reshape(n * n, n * n)
    t = r_jk_il @ b.transpose(1, 2, 0).reshape(n * n, count)
    mat = (b.reshape(count, n * n) @ t).T
    return (mat + mat.T) / 2.0


def spectrum(r):
    """Ascending eigenvalues of the operator of a curvature tensor, dim >= 2,
    as a float64 array."""
    if r.dim < 2:
        raise InvalidInputError("spectra need ambient dimension at least 2")
    return eigensolve(operator_matrix(r, standard_basis(r.dim)))


def _split_alpha(alpha, n_values):
    if not 1.0 <= alpha <= n_values:
        raise InvalidInputError(f"alpha must lie in [1, {n_values}], got {alpha}")
    k = int(math.floor(alpha))
    frac = alpha - k
    if k == n_values:
        return n_values, 0.0
    return k, frac


def weighted_partial_sums(rows, alpha):
    """g(alpha) of each ascending row: the sum of its floor(alpha) smallest
    entries plus the fractional part of alpha times the next one.

    ``rows`` is one ascending row or a stack of them; returns a scalar or
    one value per row.
    """
    rows = np.asarray(rows, dtype=float)
    k, frac = _split_alpha(float(alpha), rows.shape[-1])
    total = rows[..., :k].sum(axis=-1)
    if frac > 0.0:
        total = total + frac * rows[..., k]
    return total


def alpha_sum(s, alpha):
    """Weighted partial sum g(alpha) over ascending eigenvalues: the full
    floor(alpha) smallest plus the fractional part times the next one.

    Piecewise linear and convex in alpha, with slopes the eigenvalues.
    """
    return float(weighted_partial_sums(s, alpha))


def verdict(s, alpha, tol=CLASSIFY_TOL):
    """Fractional-alpha verdict of ascending eigenvalues: nonnegative /
    nonpositive / both / neither.

    Nonnegative means g(alpha) >= -tol on the eigenvalues; nonpositive is the
    same test on the negated eigenvalues, read in ascending order as the
    reversed negation. Flat tensors report both. The tolerance must be
    nonnegative and finite.
    """
    if not 0.0 <= tol < math.inf:  # also false for NaN
        raise InvalidInputError(f"tolerance must be nonnegative and finite, got {tol}")
    nonneg = weighted_partial_sums(s, alpha) >= -tol
    nonpos = weighted_partial_sums(-s[::-1], alpha) >= -tol
    if nonneg and nonpos:
        return VERDICT_BOTH
    if nonneg:
        return VERDICT_NONNEGATIVE
    if nonpos:
        return VERDICT_NONPOSITIVE
    return VERDICT_NEITHER


def classify(r, alpha, tol=CLASSIFY_TOL):
    """Fractional-alpha verdict of a curvature tensor; see ``verdict``."""
    return verdict(spectrum(r), alpha, tol)


def nonneg_threshold(s):
    """Least alpha in [1, N] with g(alpha) >= 0 over the ascending ``s``,
    using the exact root of the crossing linear segment; 1.0 when the least
    eigenvalue is nonnegative, None when even g(N) is negative."""
    if s[0] >= 0.0:
        return 1.0
    c = np.cumsum(s)
    idx = int(np.argmax(c >= 0.0))  # first crossing; 0 when none, as c[0] < 0
    if idx == 0:
        return None
    return float(idx + (-c[idx - 1]) / s[idx])


def nonpos_threshold(s):
    """Least alpha making the negated tensor's sum nonnegative: the
    ``nonneg_threshold`` of the eigenvalues negated in reverse order, which
    is ascending."""
    return nonneg_threshold(-s[::-1])


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _oracle_block(n_dim):
    """Samples per stacked block for an N-wide operator: ``_ORACLE_BLOCK``
    up to N = 27, then fewer, so that a block holds about as many numbers
    as at N = 27, down to one sample from N = 153 on."""
    return max(1, min(_ORACLE_BLOCK, (_ORACLE_BLOCK * 27 * 27) // (n_dim * n_dim)))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of random-basis minimization; sample 0 is the eigenbasis, and
    the minimum is ``sample_values[argmin_sample]``, the first least value."""

    argmin_sample: int
    argmin_digest: str
    sample_values: tuple


def bruteforce_min_alpha_sum(r, alpha, samples, seed):
    """Minimize the weighted diagonal sum over sampled orthonormal bases.

    Rotates the standard coefficient basis by Haar-distributed orthogonal
    matrices (one per sample, seeded by seed XOR sample index), sorts the
    diagonal operator values ascending and applies the weights
    (1, ..., 1, alpha - floor(alpha)). The eigenvector basis is always
    evaluated as sample 0, so the returned minimum equals g(alpha) up to
    rounding whenever the sampling is consistent with the spectrum route.
    Samples are drawn and contracted in stacked blocks; only the argmin's
    basis is hashed.
    """
    if samples < 1:
        raise InvalidInputError("at least one sample is required")
    if samples > MAX_SAMPLES:
        raise InvalidInputError(f"{samples} samples exceed the limit {MAX_SAMPLES}")
    basis = standard_basis(r.dim)
    mat = operator_matrix(r, basis)
    n_dim = basis.count
    _split_alpha(float(alpha), n_dim)  # reject a bad alpha before sampling
    w, vecs = eigensolve(mat, vectors=True)
    seeds = [derived_seed(seed, s) for s in range(samples + 1)]
    diags = np.empty((samples + 1, n_dim))
    diags[0] = w
    block = _oracle_block(n_dim)
    for start in range(1, samples + 1, block):
        stop = min(start + block, samples + 1)
        qs = random_orthonormal_families(n_dim, seeds[start:stop])
        diags[start:stop] = np.einsum("saj,saj->sa", qs @ mat, qs)
    diags.sort(axis=1)
    values = weighted_partial_sums(diags, alpha).tolist()
    argmin = int(np.argmin(values))
    if argmin == 0:
        argmin_basis = vecs
    else:
        argmin_basis = random_orthonormal_families(n_dim, [seeds[argmin]])[0]
    return OracleResult(
        argmin_sample=argmin,
        argmin_digest=_digest(argmin_basis),
        sample_values=tuple(values),
    )

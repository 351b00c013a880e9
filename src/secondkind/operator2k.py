"""The curvature operator on traceless symmetric two-tensors, as a finite
symmetric matrix: assembly, spectra, weighted partial eigenvalue sums,
fractional nonnegativity verdicts (``VERDICTS``; the negated tensor's is
that of the reversed key) and thresholds, and a definition-level
random-basis oracle for them; the closed forms live in ``descriptors``.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidInputError
from .numerics import (
    MAX_BLOCK,
    _float_array,
    _float_list,
    _orthonormal_rows,
    _real,
    blocks,
    derived_seed,
    eigensolve,
    fill_standard_normal,
    random_orthonormal_families,
)
from .sym2 import standard_basis, sym2_dim

CLASSIFY_TOL = 1e-9

# Numbers one stacked QR block of the oracle holds: those of ``MAX_BLOCK``
# samples at N = 27, about 0.4 MB, so that wider operators take fewer
# samples per block, down to one from N = 153 on.
_ORACLE_BUDGET = MAX_BLOCK * 27 * 27
# Most samples one oracle call or one sampled rigidity harness runs; the
# oracle holds the seeds and the sorted diagonals of every sample at once,
# and a harness may hold a finding per sample.
MAX_SAMPLES = 100_000

VERDICT_NONNEGATIVE = "nonnegative"
VERDICT_NONPOSITIVE = "nonpositive"
VERDICT_BOTH = "both"
VERDICT_NEITHER = "neither"
# (nonnegative, nonpositive) -> verdict
VERDICTS = {
    (True, True): VERDICT_BOTH,
    (True, False): VERDICT_NONNEGATIVE,
    (False, True): VERDICT_NONPOSITIVE,
    (False, False): VERDICT_NEITHER,
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
    return operator_matrices(r.components, basis.tensors)


def operator_matrices(components, b):
    """``operator_matrix`` of components ``(n, n, n, n)`` in the basis
    tensors ``b`` ``(N, n, n)``, unchecked, or one matrix per tensor of a
    stack ``(..., n, n, n, n)``; numpy runs a stacked matmul matrix by
    matrix, so each matrix of a stack is bitwise its tensor's own."""
    # the two matmuls that np.einsum(..., optimize=True) reduces this
    # contraction to, in its operand order, without its per-call planning:
    # t[(j,k), a] = sum_(i,l) R[i,j,k,l] b_a[i,l], then mat[a, b] = <t_a, b_b>
    count, n, _ = b.shape
    r_jk_il = components.swapaxes(-4, -3).swapaxes(-3, -2)
    r_jk_il = r_jk_il.reshape(components.shape[:-4] + (n * n, n * n))
    t = r_jk_il @ b.transpose(1, 2, 0).reshape(n * n, count)
    # x is the matrix's transpose, and IEEE addition commutes, so the
    # half-sum on the contiguous x is the matrix's, and it equals its
    # transpose bit for bit, which ``eigensolve`` reads as it is
    x = b.reshape(count, n * n) @ t
    return (x + x.swapaxes(-1, -2)) / 2.0


def spectrum(r):
    """Ascending eigenvalues of the operator of a curvature tensor, dim >= 2,
    as a float64 array."""
    if r.dim < 2:
        raise InvalidInputError("spectra need ambient dimension at least 2")
    return eigensolve(operator_matrix(r, standard_basis(r.dim)))


# the threshold scans trust a list to hold numbers and turn the error of
# their own operations into this one, so that a valid list pays for no check
_NOT_NUMBERS = "expected a 1-D list of eigenvalues, got an entry that is not a real number"
_NOT_FINITE = "eigenvalues must be finite"


def _split_alpha(alpha, n_values):
    alpha = _real("alpha", alpha)
    if not 1.0 <= alpha <= n_values:
        raise InvalidInputError(f"alpha must lie in [1, {n_values}], got {alpha}")
    k = int(math.floor(alpha))
    return k, alpha - k


def weighted_partial_sums(rows, alpha):
    """g(alpha) of each ascending row: the sum of its floor(alpha) smallest
    entries plus the fractional part of alpha times the next one.

    ``rows`` is one ascending row or a stack of them; returns a scalar or
    one value per row.
    """
    rows = _float_array(rows)
    k, frac = _split_alpha(alpha, rows.shape[-1])
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
    nonpositive / both / neither; for a stack of ascending rows, the list of
    the rows' verdicts.

    Nonnegative means g(alpha) >= -tol on the eigenvalues; nonpositive is the
    same test on the negated eigenvalues, read in ascending order as the
    reversed negation. Flat tensors report both. The tolerance must be
    nonnegative and finite, and the eigenvalues finite.
    """
    tol = _real("tolerance", tol)
    if not 0.0 <= tol < math.inf:  # also false for NaN
        raise InvalidInputError(f"tolerance must be nonnegative and finite, got {tol}")
    s = _float_array(s)
    if not np.isfinite(s).all():
        raise InvalidInputError(_NOT_FINITE)
    nonneg = weighted_partial_sums(s, alpha) >= -tol
    nonpos = weighted_partial_sums(-s[..., ::-1], alpha) >= -tol
    if nonneg.ndim:
        return [VERDICTS[pair] for pair in zip(nonneg.tolist(), nonpos.tolist())]
    return VERDICTS[bool(nonneg), bool(nonpos)]


def classify(r, alpha, tol=CLASSIFY_TOL):
    """Fractional-alpha verdict of a curvature tensor; see ``verdict``."""
    return verdict(spectrum(r), alpha, tol)


def nonneg_threshold(s):
    """Least alpha in [1, N] with g(alpha) >= 0 over the ascending float64
    ``s``, an array or a list of floats, using the exact root of the
    crossing linear segment; 1.0 when the least eigenvalue is nonnegative,
    None when even g(N) is negative. An entry that is not finite raises
    InvalidInputError.

    Where the first entry is nonnegative the entries are only checked.
    Otherwise the running sums are added left to right in one list scan, in
    the order and the rounding of ``np.cumsum``, and the entries are checked
    only where the last sum is not finite."""
    values = _float_list(s)
    if not values:
        raise InvalidInputError("a threshold needs at least one eigenvalue")
    try:
        if values[0] >= 0.0:
            if not all(map(math.isfinite, values)):
                raise InvalidInputError(_NOT_FINITE)
            return 1.0
        sums = list(accumulate(values))
        if not math.isfinite(sums[-1]):
            # a sum overflowed (or an entry is not finite): np.cumsum raises
            # or warns under the caller's np.errstate; Python's float sums do not
            np.cumsum(values)
            if not all(map(math.isfinite, values)):
                raise InvalidInputError(_NOT_FINITE)
        for idx, total in enumerate(sums):
            if total >= 0.0:  # first crossing; idx >= 1, as sums[0] < 0
                return idx + (-sums[idx - 1]) / values[idx]
    except InvalidInputError:  # a ValueError, raised above
        raise
    except (TypeError, ValueError):  # ValueError: the truth value of an array entry
        raise InvalidInputError(_NOT_NUMBERS) from None
    return None


def nonpos_threshold(s):
    """Least alpha making the negated tensor's sum nonnegative: the
    ``nonneg_threshold`` of the eigenvalues negated in reverse order, which
    is ascending; ``s`` is an array or a list of floats."""
    try:
        negated = [-v for v in reversed(_float_list(s))]
    except TypeError:
        raise InvalidInputError(_NOT_NUMBERS) from None
    return nonneg_threshold(negated)


def _digest(array):
    # imported here, as only the oracle hashes
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


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
    Samples are drawn and contracted in stacked blocks, with LAPACK's row
    signs, which leave every diagonal entry unchanged; only the argmin's
    basis is hashed, and only it takes the sign fix.
    """
    if samples < 1:
        raise InvalidInputError("at least one sample is required")
    if samples > MAX_SAMPLES:
        raise InvalidInputError(f"{samples} samples exceed the limit {MAX_SAMPLES}")
    basis = standard_basis(r.dim)
    mat = operator_matrix(r, basis)
    n_dim = basis.count
    _split_alpha(alpha, n_dim)  # reject a bad alpha before sampling
    w, vecs = eigensolve(mat, vectors=True)
    seeds = [derived_seed(seed, s) for s in range(samples + 1)]
    diags = np.empty((samples + 1, n_dim))
    diags[0] = w
    for block in blocks(1, samples + 1, n_dim * n_dim, _ORACLE_BUDGET):
        # a row's sign cancels in q^T M q bit for bit, so only the hashed
        # basis below needs the sign fix
        draws = np.empty((len(block), n_dim, n_dim))
        qs = _orthonormal_rows(fill_standard_normal(seeds[block.start:block.stop], draws))
        diags[block.start:block.stop] = np.einsum("saj,saj->sa", qs @ mat, qs)
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

"""The curvature operator of the second kind in exact rational arithmetic,
with no float and no LAPACK; the tests compare the closed forms against it.

* ``rational_operator`` reads a tensor's components exactly, each as a
  ``Fraction``, and returns the operator as a pencil (A, G) over the
  unnormalized standard basis of ``S^2_0``: ``e_i o e_j`` for i < j, then
  ``diag(1, ..., 1, -k, 0, ...)`` with k leading ones, the order of
  ``sym2.standard_basis``. The basis is orthogonal, so its Gram matrix G is
  diagonal, 2 for ``e_i o e_j`` and ``k + k^2`` for the diagonal tensors,
  and A[a][b] = sum R[i,j,k,l] u_a[i,l] u_b[j,k] is the entry of
  ``operator2k.operator_matrix`` before normalization. The operator's
  eigenvalues are the roots of det(A - t G).
* ``inertia`` counts those eigenvalues below, at and above a rational t.
  ``A - t G`` is congruent to the operator minus t in the orthonormal
  basis, by G^(-1/2) on both sides, so by Sylvester's law of inertia the
  signs of its pivots under symmetric elimination count them exactly. Where
  every diagonal pivot left is zero, a 2 x 2 pivot ``[[0, b], [b, 0]]``,
  b != 0, takes one negative and one positive eigenvalue (Bunch and
  Parlett, "Direct methods for solving symmetric indefinite systems of
  linear equations", SIAM J. Numer. Anal. 8, 1971).
"""

from collections import defaultdict
from fractions import Fraction

import numpy as np


def standard_tensors(n):
    """The unnormalized standard basis of ``S^2_0`` on R^n, each tensor as
    its nonzero entries ``{(i, j): int}``, and the diagonal of its Gram
    matrix."""
    tensors, gram = [], []
    for i in range(n):
        for j in range(i + 1, n):
            tensors.append({(i, j): 1, (j, i): 1})
            gram.append(2)
    for k in range(1, n):
        tensors.append({**{(p, p): 1 for p in range(k)}, (k, k): -k})
        gram.append(k + k * k)
    return tensors, gram


def rational_operator(components):
    """The pencil (A, G) of the operator of ``components`` ``(n, n, n, n)``
    over the unnormalized standard basis, each component read exactly as a
    ``Fraction``: A as a list of rows of ``Fraction``s, G as its diagonal."""
    components = np.asarray(components)
    n = components.shape[0]
    # R[i,j,k,l] grouped by (i, l), the slot pair that u_a fills
    by_il = defaultdict(list)
    for (i, j, k, l), value in np.ndenumerate(components):
        if value:
            by_il[i, l].append(((j, k), Fraction(float(value))))
    tensors, gram = standard_tensors(n)
    rows = []
    for u in tensors:
        t = defaultdict(Fraction)  # t[j, k] = sum_(i,l) R[i,j,k,l] u[i,l]
        for il, c in u.items():
            for jk, value in by_il[il]:
                t[jk] += c * value
        rows.append([sum((t[jk] * c for jk, c in v.items() if jk in t), Fraction(0))
                     for v in tensors])
    return rows, gram


def inertia(a, gram, t):
    """(below, at, above): how many eigenvalues of the pencil (a, G), G the
    diagonal ``gram``, lie below, at and above the rational ``t``, by
    symmetric elimination of ``a - t G`` in ``Fraction``."""
    t = Fraction(t)
    m = [[Fraction(x) - (t * gram[i] if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(a)]
    below = above = 0
    rest = list(range(len(m)))
    while rest:
        p = next((i for i in rest if m[i][i]), None)
        if p is not None:  # a 1 x 1 pivot
            if m[p][p] < 0:
                below += 1
            else:
                above += 1
            rest.remove(p)
            for i in rest:
                f = m[i][p] / m[p][p]
                if f:
                    for j in rest:
                        m[i][j] -= f * m[p][j]
            continue
        pair = next(((p, q) for p in rest for q in rest if p < q and m[p][q]), None)
        if pair is None:  # what is left of a - t G is zero
            return below, len(rest), above
        p, q = pair  # a 2 x 2 pivot [[0, b], [b, 0]]
        below += 1
        above += 1
        rest.remove(p)
        rest.remove(q)
        for i in rest:
            ip, iq = m[i][p], m[i][q]
            if ip or iq:
                for j in rest:
                    m[i][j] -= (ip * m[q][j] + iq * m[p][j]) / m[p][q]
    return below, 0, above

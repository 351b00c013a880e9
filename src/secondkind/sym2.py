"""Traceless symmetric two-tensors and the orthonormal bases used to
organize the curvature operator: a standard basis and the product-adapted
basis.

The inner product throughout is the Frobenius pairing
``<u, v> = sum_ij u[i, j] v[i, j]``.

``product_adapted_basis(n1, n2)`` fixes its blocks by position, as
``[N1 | N2 | n1 n2 | 1]``: the standard bases of the two factors, the mixed
(xi) directions and the trace difference (zeta); callers read a block as a
slice.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError


def sym2_dim(n):
    """Dimension (n-1)(n+2)/2 of the traceless symmetric two-tensors."""
    return (n - 1) * (n + 2) // 2


def sym_product(u, v):
    """Symmetric product: (u o v)[i, j] = u_i v_j + u_j v_i."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.outer(u, v) + np.outer(v, u)


@dataclass(frozen=True)
class Sym2Basis:
    """Ordered orthonormal family of traceless symmetric matrices;
    ``tensors`` has shape (count, dim, dim)."""

    dim: int
    tensors: np.ndarray

    @property
    def count(self):
        return self.tensors.shape[0]


@lru_cache(maxsize=32)
def standard_basis(n):
    """Orthonormal basis of the traceless symmetric two-tensors on R^n.

    Off-diagonal tensors ``(1/sqrt(2)) e_i o e_j`` for i < j, followed by the
    n-1 diagonal traceless tensors with k leading ones and -k in slot k.
    Cached per n and shared by every caller, so its tensors are read-only.
    """
    if n < 2:
        raise InvalidInputError("the traceless symmetric basis needs dimension at least 2")
    e = np.eye(n)
    tensors = []
    for i in range(n):
        for j in range(i + 1, n):
            tensors.append(sym_product(e[i], e[j]) / np.sqrt(2.0))
    for k in range(1, n):
        t = np.diag([1.0] * k + [-float(k)] + [0.0] * (n - k - 1))
        tensors.append(t / np.sqrt(k * (k + 1.0)))
    basis = Sym2Basis(n, np.array(tensors))
    basis.tensors.flags.writeable = False
    return basis


def _embed(tensor, n, offset):
    out = np.zeros((n, n))
    d = tensor.shape[0]
    out[offset:offset + d, offset:offset + d] = tensor
    return out


@lru_cache(maxsize=32)
def product_adapted_basis(n1, n2):
    """Basis of the product space in the layout ``[N1 | N2 | n1 n2 | 1]``
    with ``Ni = sym2_dim(ni)``; callers slice its blocks by position.
    Cached per (n1, n2) and shared by every caller, so its tensors are
    read-only.

    First the standard bases of the two factors, zero-extended into their
    diagonal blocks (a factor of dimension 1 has none); then the mixed (xi)
    tensors ``(1/sqrt(2)) e_p o e_q`` with p in the first factor and q in
    the second, ordered lexicographically; last zeta, the normalized
    trace-difference ``(n2 g1 - n1 g2) / sqrt(n1 n2 (n1 + n2))``.
    """
    if n1 < 1 or n2 < 1:
        raise InvalidInputError("factor dimensions must be positive")
    n = n1 + n2
    e = np.eye(n)
    tensors = [_embed(t, n, offset) for d, offset in ((n1, 0), (n2, n1)) if d >= 2
               for t in standard_basis(d).tensors]
    for p in range(n1):
        for q in range(n1, n):
            tensors.append(sym_product(e[p], e[q]) / np.sqrt(2.0))
    zeta = np.diag([float(n2)] * n1 + [-float(n1)] * n2)
    tensors.append(zeta / np.sqrt(n1 * n2 * (n1 + n2)))
    basis = Sym2Basis(n, np.array(tensors))
    basis.tensors.flags.writeable = False
    return basis

import numpy as np
import pytest

from secondkind.errors import InvalidInputError
from secondkind.sym2 import (
    product_adapted_basis,
    standard_basis,
    sym2_dim,
    sym_product,
)

from reference import (
    LABEL_ALPHA,
    LABEL_ETA,
    LABEL_MINUS,
    LABEL_PLUS,
    kahler_basis,
)


def assert_orthonormal_traceless(basis, tol=1e-12):
    gram = np.einsum("aij,bij->ab", basis.tensors, basis.tensors)
    assert np.abs(gram - np.eye(basis.count)).max() <= tol
    for t in basis.tensors:
        assert np.abs(t - t.T).max() <= tol
        assert abs(np.trace(t)) <= tol


def test_sym_product_definition():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 2.0, 0.0])
    p = sym_product(u, v)
    assert p[0, 1] == 2.0 and p[1, 0] == 2.0 and np.abs(p).sum() == 4.0


class TestStandardBasis:
    @pytest.mark.parametrize("n,expected", [(2, 2), (4, 9), (8, 35)])
    def test_counts(self, n, expected):
        assert sym2_dim(n) == expected
        assert standard_basis(n).count == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_orthonormal_traceless(self, n):
        assert_orthonormal_traceless(standard_basis(n))

    def test_rejects_dim1(self):
        with pytest.raises(InvalidInputError):
            standard_basis(1)

    def test_cached_and_read_only(self):
        basis = standard_basis(5)
        assert standard_basis(5) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis.tensors[0, 0, 1] = 1.0
        assert_orthonormal_traceless(standard_basis(5))


def block_roles(basis, n1):
    """The block of each tensor of a product basis, read off its support:
    ``factor1`` and ``factor2`` live in one diagonal block, ``xi`` in the
    off-diagonal blocks, and ``zeta`` on both diagonal blocks."""
    roles = []
    for t in basis.tensors:
        first, second, mixed = t[:n1, :n1].any(), t[n1:, n1:].any(), t[:n1, n1:].any()
        if mixed:
            assert not (first or second)
            roles.append("xi")
        elif first and second:
            roles.append("zeta")
        else:
            roles.append("factor1" if first else "factor2")
    return roles


def layout(n1, n2):
    """The documented layout ``[N1 | N2 | n1 n2 | 1]`` as one role per row."""
    return (["factor1"] * sym2_dim(n1) + ["factor2"] * sym2_dim(n2)
            + ["xi"] * (n1 * n2) + ["zeta"])


class TestProductAdaptedBasis:
    def test_counts_2x2(self):
        basis = product_adapted_basis(2, 2)
        roles = block_roles(basis, 2)
        assert roles.count("factor1") == 2
        assert roles.count("factor2") == 2
        assert roles.count("xi") == 4
        assert roles.count("zeta") == 1
        assert roles == layout(2, 2)
        assert basis.count == 9

    def test_counts_3x1(self):
        basis = product_adapted_basis(3, 1)
        roles = block_roles(basis, 3)
        assert (roles.count("factor1"), roles.count("factor2"),
                roles.count("xi"), roles.count("zeta")) == (5, 0, 3, 1)
        assert roles == layout(3, 1)

    def test_zeta_entries_2x2(self):
        basis = product_adapted_basis(2, 2)
        zeta = basis.tensors[-1]
        np.testing.assert_allclose(zeta, np.diag([1.0, 1.0, -1.0, -1.0]) / 2.0, atol=1e-15)

    @pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 1), (1, 4), (4, 3)])
    def test_orthonormal_and_partition(self, n1, n2):
        basis = product_adapted_basis(n1, n2)
        assert_orthonormal_traceless(basis)
        roles = block_roles(basis, n1)
        assert roles.count("factor1") == sym2_dim(n1)
        assert roles.count("factor2") == sym2_dim(n2)
        assert roles.count("xi") == n1 * n2
        assert roles.count("zeta") == 1
        assert roles == layout(n1, n2)
        assert basis.count == sym2_dim(n1 + n2)

    def test_factor_ordering_and_extension(self):
        b1, b2 = standard_basis(2), standard_basis(3)
        basis = product_adapted_basis(2, 3)
        # the factors' standard tensors, zero-extended, keep their block and
        # vanish elsewhere
        for a in range(b1.count):
            t = basis.tensors[a]
            assert np.array_equal(t[:2, :2], b1.tensors[a])
            assert np.abs(t[2:, :]).max() == 0.0
        for a in range(b2.count):
            t = basis.tensors[b1.count + a]
            assert np.array_equal(t[2:, 2:], b2.tensors[a])
            assert np.abs(t[:2, :]).max() == 0.0 and np.abs(t[:, :2]).max() == 0.0

    def test_cached_and_read_only_per_size_pair(self):
        basis = product_adapted_basis(2, 3)
        assert product_adapted_basis(2, 3) is basis
        assert product_adapted_basis(3, 2) is not basis
        with pytest.raises(ValueError, match="read-only"):
            basis.tensors[0, 0, 1] = 1.0
        assert_orthonormal_traceless(product_adapted_basis(2, 3))

    @pytest.mark.parametrize("n1,n2", [(0, 2), (2, 0), (-1, 3)])
    def test_rejects_nonpositive_factor_dims(self, n1, n2):
        with pytest.raises(InvalidInputError, match="factor dimensions must be positive"):
            product_adapted_basis(n1, n2)


class TestKahlerBasis:
    def test_counts_m1(self):
        basis, labels = kahler_basis(1)
        assert basis.count == 2
        assert labels.count(LABEL_ALPHA) == 2
        assert labels.count(LABEL_PLUS) == labels.count(LABEL_MINUS) == 0
        assert labels.count(LABEL_ETA) == 0

    def test_counts_m2(self):
        basis, labels = kahler_basis(2)
        assert basis.count == 9
        assert labels.count(LABEL_PLUS) == 2
        assert labels.count(LABEL_MINUS) == 2
        assert labels.count(LABEL_ALPHA) == 4
        assert labels.count(LABEL_ETA) == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_orthonormal_traceless(self, m):
        basis, _ = kahler_basis(m)
        assert_orthonormal_traceless(basis)
        assert basis.count == sym2_dim(2 * m)

    def test_label_family_sizes(self):
        m = 3
        _, labels = kahler_basis(m)
        half = m * (m - 1) // 2
        assert labels.count(LABEL_PLUS) == 2 * half
        assert labels.count(LABEL_MINUS) == 2 * half
        assert labels.count(LABEL_ALPHA) == 2 * m
        assert labels.count(LABEL_ETA) == m - 1

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondkind.curvature import kahler_space_form, product, space_form
from secondkind.errors import ConvergenceError, InvalidInputError
from secondkind.numerics import (
    CLUSTER_REL_TOL,
    _orthonormal_rows,
    _symmetric_operand,
    cluster_spectrum,
    eigensolve,
    fill_standard_normal,
    random_orthonormal_families,
    seeded_stream,
)
from secondkind.operator2k import operator_matrices, operator_matrix
from secondkind.sym2 import standard_basis

import reference
from reference import cluster_spectrum_loop, jacobi_eigen
from samples import random_curvatures, random_kahler_curvatures, random_tensor


def random_symmetric(n, seed, scale=1.0):
    a = seeded_stream(seed).standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


class TestJacobiEigen:
    def test_identity(self):
        w, q = jacobi_eigen(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-14)

    def test_diagonal_sorted(self):
        w, _ = jacobi_eigen(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0])

    def test_offdiagonal_2x2(self):
        w, _ = jacobi_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_1x1(self):
        w, q = jacobi_eigen(np.array([[3.5]]))
        assert w[0] == 3.5 and q[0, 0] == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            jacobi_eigen(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            jacobi_eigen(a)

    def test_deterministic(self):
        a = random_symmetric(8, seed=5)
        w1, q1 = jacobi_eigen(a)
        w2, q2 = jacobi_eigen(a)
        assert np.array_equal(w1, w2) and np.array_equal(q1, q2)

    @pytest.mark.parametrize("n", [2, 5, 9, 20, 54, 77])
    def test_matches_lapack_and_reconstructs(self, n):
        a = random_symmetric(n, seed=n)
        w, q = jacobi_eigen(a)
        scale = max(1.0, np.linalg.norm(a))
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=1e-10 * scale)
        assert np.linalg.norm(q @ np.diag(w) @ q.T - a) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [2, 9, 20])
    def test_sliced_rotations_equal_the_element_loop_bitwise(self, n, monkeypatch):
        a = random_symmetric(n, seed=n)
        w, q = jacobi_eigen(a)
        monkeypatch.setattr(reference, "_rotate", reference._rotate_loop)
        w_loop, q_loop = jacobi_eigen(a)
        assert w.tobytes() == w_loop.tobytes() and q.tobytes() == q_loop.tobytes()

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_trace_equals_eigenvalue_sum(self, seed, n):
        a = random_symmetric(n, seed)
        w, _ = jacobi_eigen(a)
        assert abs(w.sum() - np.trace(a)) <= 1e-10 * max(1.0, np.linalg.norm(a))

    @given(
        st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
    )
    @settings(max_examples=100, deadline=None)
    def test_2x2_characteristic_roots(self, a, b, d):
        m = np.array([[a, b], [b, d]])
        w, _ = jacobi_eigen(m)
        disc = np.sqrt(((a - d) / 2.0) ** 2 + b * b)
        mid = (a + d) / 2.0
        expected = np.array([mid - disc, mid + disc])
        assert np.abs(w - expected).max() <= 1e-12 * max(1.0, np.abs(m).max())


class TestEigensolve:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 20])
    def test_matches_jacobi_reference(self, n):
        a = random_symmetric(n, seed=n + 300)
        scale = max(1.0, np.linalg.norm(a))
        w_ref, _ = jacobi_eigen(a)
        w = eigensolve(a)
        w_vec, q = eigensolve(a, vectors=True)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(w, w_ref, atol=1e-12 * scale)
        np.testing.assert_allclose(w_vec, w_ref, atol=1e-12 * scale)
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12
        assert np.linalg.norm(q @ np.diag(w_vec) @ q.T - a) <= 1e-12 * scale

    @pytest.mark.parametrize("m", [np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3),
                                   np.array([[0.0, 1.0], [0.0, 0.0]])])
    def test_rejects_what_jacobi_rejects(self, m):
        for vectors in (False, True):
            with pytest.raises(InvalidInputError):
                eigensolve(m, vectors=vectors)
        with pytest.raises(InvalidInputError):
            jacobi_eigen(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # the same error and message with numpy floating-point errors
        # ignored or raising, as every CLI command runs
        a = np.eye(3)
        a[1, 2] = a[2, 1] = bad
        for raising in (False, True):
            for vectors in (False, True):
                with (np.errstate(over="raise", invalid="raise") if raising
                      else contextlib.nullcontext()):
                    with pytest.raises(ConvergenceError) as info:
                        eigensolve(a, vectors=vectors)
                assert str(info.value) == "matrix of dimension 3 has non-finite entries"

    @pytest.mark.parametrize("name,vectors", [("eigvalsh", False), ("eigh", True)])
    def test_lapack_failure_is_convergence_error(self, monkeypatch, name, vectors):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigensolve(np.eye(2), vectors=vectors)


def _operator_stack(n, seeds):
    """Operators ``(len(seeds), N, N)`` of seeded random curvature tensors
    of dimension ``n``, assembled in one stacked call."""
    return operator_matrices(random_curvatures(n, seeds), standard_basis(n).tensors)


def _half_sum_solve(m, vectors=False):
    """The LAPACK solve of ``(m + mᵀ) / 2``, the matrix ``eigensolve`` reads."""
    sym = (m + np.swapaxes(m, -1, -2)) / 2.0
    return np.linalg.eigh(sym) if vectors else np.linalg.eigvalsh(sym)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSymmetricOperand:
    """``eigensolve`` reads a matrix that equals its transpose bit for bit as
    it is, and every other one through the half-sum, with the same bits."""

    @pytest.mark.parametrize("n", list(range(2, 13)) + [32])
    def test_assembled_operator_solves_as_its_half_sum(self, n):
        if n == 32:  # a random tensor of dimension 32 is needlessly big
            m = operator_matrix(product(space_form(20, 0.5), kahler_space_form(6, -2.0)),
                                standard_basis(n))
        else:
            m = operator_matrix(random_tensor(n, seed=n), standard_basis(n))
        bits = m.view(np.int64)
        assert np.array_equal(bits, bits.T)
        assert _symmetric_operand(m) is m
        assert _same_bits(eigensolve(m), _half_sum_solve(m))
        for got, expected in zip(eigensolve(m, vectors=True), _half_sum_solve(m, True)):
            assert _same_bits(got, expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stacked_operators_solve_as_their_half_sums(self, n):
        mats = _operator_stack(n, [n, n + 1, n + 2])
        assert _symmetric_operand(mats) is mats
        w = eigensolve(mats)
        assert _same_bits(w, _half_sum_solve(mats))
        for row, m in zip(w, mats):
            assert _same_bits(row, _half_sum_solve(m))

    def test_signed_zero_pair_takes_the_half_sum(self):
        # -0.0 == 0.0, but the half-sum makes both +0.0: the test is on bits
        m = np.array([[1.0, -0.0, 2.0], [0.0, 3.0, 0.5], [2.0, 0.5, -1.0]])
        sym = (m + m.T) / 2.0
        assert np.array_equal(m, m.T) and not _same_bits(m, sym)
        assert _same_bits(_symmetric_operand(m), sym)
        assert _same_bits(eigensolve(m), np.linalg.eigvalsh(sym))
        for got, expected in zip(eigensolve(m, vectors=True), np.linalg.eigh(sym)):
            assert _same_bits(got, expected)

    def test_stack_with_one_signed_zero_pair_takes_the_half_sum(self):
        mats = _operator_stack(3, [1, 2]).copy()
        mats[1, 0, 1], mats[1, 1, 0] = -0.0, 0.0
        assert _same_bits(eigensolve(mats), _half_sum_solve(mats))
        assert _symmetric_operand(mats) is not mats

    def test_peak_above_half_the_largest_double_overflows_as_before(self):
        m = np.array([[1e308, 1.0], [1.0, 1.0]])
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow encountered in add"):
                eigensolve(m)
            with pytest.raises(FloatingPointError, match="overflow encountered in add"):
                _symmetric_operand(m)
        # at half the largest double the doubling is exact, so m is read as it is
        half = np.array([[np.finfo(float).max / 2.0, 1.0], [1.0, 1.0]])
        with np.errstate(over="raise"):
            assert _symmetric_operand(half) is half
            assert _same_bits(eigensolve(half), _half_sum_solve(half))

    @pytest.mark.parametrize("make", [
        lambda: operator_matrix(random_tensor(4, seed=3), standard_basis(4)),
        lambda: _operator_stack(3, [5, 6]),
        lambda: random_symmetric(5, seed=2),
        lambda: random_symmetric(5, seed=2) + 1e-14 * np.triu(np.ones((5, 5)), 1),
        lambda: np.array([[1.0, -0.0], [0.0, 2.0]]),
    ], ids=["operator", "stack", "symmetric", "near-symmetric", "signed-zero"])
    def test_checked_symmetric_is_a_fresh_half_sum(self, make):
        # the Jacobi reference rotates a copy of the operand in place, so it
        # never aliases its input, a transposed view of it or a list of its rows
        m = make()
        sym = (m + np.swapaxes(m, -1, -2)) / 2.0
        for source in (m, np.swapaxes(m, -1, -2), m.tolist()):
            out = _symmetric_operand(source).copy()
            assert not np.may_share_memory(out, m)
            assert _same_bits(out, sym)
        if m.ndim == 2:
            before = m.copy()
            reference.jacobi_eigen(m)
            assert _same_bits(m, before)


def square_id(dim):
    """Test id of a square family of dimension ``dim``: its shape."""
    return f"{dim}-{dim}"


class TestRandomOrthonormalFamily:
    def test_dim1_is_sign(self):
        v = random_orthonormal_families(1, [11])[0]
        assert v.shape == (1, 1) and abs(abs(v[0, 0]) - 1.0) < 1e-15

    def test_deterministic(self):
        a = random_orthonormal_families(5, [42])[0]
        b = random_orthonormal_families(5, [42])[0]
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = random_orthonormal_families(5, [1])[0]
        b = random_orthonormal_families(5, [2])[0]
        assert not np.array_equal(a, b)

    def test_gram_identity(self):
        fam = random_orthonormal_families(9, [7])[0]
        assert np.abs(fam @ fam.T - np.eye(9)).max() < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 4, 9])
    def test_full_family_has_unit_determinant(self, dim):
        fam = random_orthonormal_families(dim, [dim + 100])[0]
        assert abs(abs(np.linalg.det(fam)) - 1.0) <= 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_gram_property(self, seed):
        fam = random_orthonormal_families(6, [seed])[0]
        assert np.abs(fam @ fam.T - np.eye(6)).max() < 1e-12


class TestRandomOrthonormalFamilies:
    @pytest.mark.parametrize("dim", [1, 5, 14, 20], ids=square_id)
    def test_each_entry_is_the_single_draw_bitwise(self, dim):
        seeds = [3 ^ s for s in range(1, 12)] + [(1 << 64) - 1]
        stack = random_orthonormal_families(dim, seeds)
        assert stack.shape == (len(seeds), dim, dim)
        for fam, seed in zip(stack, seeds):
            single = random_orthonormal_families(dim, [seed])[0]
            assert np.ascontiguousarray(fam).tobytes() == np.ascontiguousarray(single).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 5, 9, 20, 44], ids=square_id)
    def test_pinned_to_seeded_stream(self, dim):
        # -5 and 2**70 + 3 check the 64-bit masking of the key
        seeds = [0, 1, 2**63, 2**64 - 1, -5, 2**70 + 3]
        stack = random_orthonormal_families(dim, seeds)
        expected = reference.signed_qr_families(dim, seeds)
        assert stack.tobytes() == expected.tobytes()

    def test_rejects_empty_dimension(self):
        with pytest.raises(InvalidInputError, match="ambient dimension must be positive"):
            random_orthonormal_families(0, [0])

    def test_builds_at_most_one_philox_per_call(self, monkeypatch):
        # the one shared generator is built on the first draw of the process
        fill_standard_normal([0], np.empty((1, 2)))
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args or kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        random_orthonormal_families(9, list(range(100)))
        random_curvatures(4, [1])
        random_kahler_curvatures(2, [1])
        assert built == []


class TestOrthonormalRows:
    @pytest.mark.parametrize("count", [1, 63, 64])
    @pytest.mark.parametrize("dim", [1, 2, 5, 9, 20, 44], ids=square_id)
    def test_bitwise_equal_to_numpy_qr(self, dim, count):
        draws = fill_standard_normal(range(count), np.empty((count, dim, dim)))
        q, r = np.linalg.qr(draws)
        rows = _orthonormal_rows(draws)
        assert rows.shape == (count, dim, dim)
        assert rows.tobytes() == np.swapaxes(q, -2, -1).tobytes()
        # the draws now hold the factorization, R in the upper triangle
        assert np.triu(draws).tobytes() == r.tobytes()


class TestFillStandardNormal:
    # -1 and 2**64 - 1 are one key after the 64-bit masking
    SEEDS = (0, 1, 2**63 + 5, 2**64 - 1, -1)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 4, 4, 4)], ids=["pair-form", "tensor"])
    def test_bitwise_equal_to_seeded_stream(self, shape):
        out = np.empty((len(self.SEEDS),) + shape)
        assert fill_standard_normal(self.SEEDS, out) is out
        for draw, seed in zip(out, self.SEEDS):
            assert draw.tobytes() == seeded_stream(seed).standard_normal(shape).tobytes()

    def test_no_state_leaks_between_draws(self):
        # three doubles leave the Philox buffer part used, so a draw that
        # inherited the previous state would differ
        a, b = 7, 2**63 + 5
        stacked = fill_standard_normal([a, b, a], np.empty((3, 3)))
        assert stacked[2].tobytes() == stacked[0].tobytes()
        assert stacked[1].tobytes() != stacked[0].tobytes()
        first = fill_standard_normal([a], np.empty((1, 3)))[0]
        fill_standard_normal([b], np.empty((1, 5)))
        again = fill_standard_normal([a], np.empty((1, 3)))[0]
        assert again.tobytes() == first.tobytes() == stacked[0].tobytes()


def _bits(clusters):
    return [(float.hex(v), type(v), m, type(m)) for v, m in clusters]


@st.composite
def ascending_spectra(draw):
    """Ascending values whose gaps sit exactly at, one ulp above or below,
    or far from the clustering tolerance of the entry before, starting on
    either side of |x| = 1 or at a point where the gap at the tolerance is
    exact."""
    value = draw(st.sampled_from([0.0, -1e-7, -2e-7, 1.0, -1.0, 1.0 - 5e-8, -1.0 - 5e-8])
                 | st.floats(-1e6, 1e6))
    values = [value]
    for step in draw(st.lists(st.sampled_from(["at", "above", "below", "equal", "far"]),
                              max_size=25)):
        at = value + CLUSTER_REL_TOL * max(1.0, abs(value))
        if step == "above":
            at = float(np.nextafter(at, np.inf))
        elif step == "below":
            at = float(np.nextafter(at, -np.inf))
        elif step == "equal":
            at = value
        elif step == "far":
            at = value + draw(st.floats(1e-6, 10.0))
        value = max(at, value)
        values.append(value)
    return values


class TestClusterSpectrum:
    @given(ascending_spectra())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_loop(self, values):
        expected = _bits(cluster_spectrum_loop(values))
        assert _bits(cluster_spectrum(values)) == expected
        assert _bits(cluster_spectrum(np.array(values))) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_spectrum_list_reads_as_the_array(self, n):
        # a report clusters the one float list of its spectrum
        for m in (operator_matrix(random_tensor(n, seed=n), standard_basis(n)),
                  operator_matrix(product(space_form(n, 0.25), kahler_space_form(1, 4.0)),
                                  standard_basis(n + 2))):
            s = eigensolve(m)
            expected = _bits(cluster_spectrum_loop(s))
            assert _bits(cluster_spectrum(s)) == expected
            assert _bits(cluster_spectrum(s.tolist())) == expected

    @pytest.mark.parametrize("values,sizes", [
        ([], []),
        ([2.5], [1]),
        ([-1.0], [1]),
        ([0.0, 1e-7], [2]),  # the gap is the tolerance exactly: one cluster
        ([-2e-7, -1e-7, 0.0], [3]),
        ([0.0, float(np.nextafter(1e-7, 1.0))], [1, 1]),
        ([-1.0 - 1.5e-7, -1.0, -1.0 + 1e-7, 1.0, 1.0 + 1.5e-7], [1, 2, 1, 1]),
    ])
    def test_edges_equal_to_loop(self, values, sizes):
        for v in (values, np.array(values)):
            clusters = cluster_spectrum(v)
            assert [m for _, m in clusters] == sizes
            assert _bits(clusters) == _bits(cluster_spectrum_loop(values))

    def test_huge_gaps_as_python_floats_under_raising_errstate(self):
        values = [-np.inf, -1e308, 1e308, np.inf]
        with np.errstate(over="raise", invalid="raise"):
            assert _bits(cluster_spectrum(values)) == _bits(cluster_spectrum_loop(values))

    def test_all_equal(self):
        assert cluster_spectrum([1.0, 1.0, 1.0]) == [(1.0, 3)]

    def test_line_spectrum(self):
        values = [-0.5, 0, 0, 0, 1, 1, 1, 1, 1]
        assert cluster_spectrum(values) == [(-0.5, 1), (0.0, 3), (1.0, 5)]

    def test_subtolerance_gap_merges(self):
        clusters = cluster_spectrum([0.0, 1e-12])
        assert len(clusters) == 1 and clusters[0][1] == 2
        assert abs(clusters[0][0]) < 1e-12

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            cluster_spectrum([1.0, 0.0])

    def test_empty(self):
        assert cluster_spectrum([]) == []

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_multiplicities_sum(self, values):
        values = sorted(values)
        clusters = cluster_spectrum(values)
        assert sum(m for _, m in clusters) == len(values)
        assert all(m >= 1 for _, m in clusters)

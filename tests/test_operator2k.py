import hashlib
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondkind.curvature import (
    CurvatureTensor,
    einstein_constant,
    flat_tensor,
    kahler_space_form,
    product,
    random_curvature,
    random_kahler_curvature,
    scalar,
    space_form,
)
import secondkind
from secondkind import numerics, operator2k
from secondkind.errors import InvalidInputError
from secondkind.operator2k import (
    CLASSIFY_TOL,
    NEGATED_VERDICT,
    alpha_sum,
    bruteforce_min_alpha_sum,
    classify,
    nonneg_threshold,
    nonpos_threshold,
    operator_matrix,
    spectrum,
    verdict,
    weighted_partial_sums,
)
from secondkind.rigidity import check_rigidity
from secondkind.sym2 import (
    product_adapted_basis,
    standard_basis,
    sym2_dim,
    sym_product,
)

from reference import (
    f_lemma,
    kahler_basis,
    negate_spectrum,
    operator_matrix_einsum,
    spectrum_from_eigenvalues,
)


def clusters_match(clusters, expected, tol=1e-9):
    if len(clusters) != len(expected):
        return False
    return all(
        m == em and abs(v - ev) <= tol
        for (v, m), (ev, em) in zip(clusters, expected)
    )


class TestOperatorMatrix:
    def test_round_sphere_is_identity(self):
        mat = operator_matrix(space_form(4, 1.0), standard_basis(4))
        assert np.abs(mat - np.eye(9)).max() <= 1e-12

    def test_diagonal_entries_are_plane_curvatures(self):
        r = random_curvature(4, seed=17)
        basis = standard_basis(4)
        mat = operator_matrix(r, basis)
        # the first n(n-1)/2 basis tensors are (1/sqrt 2) e_k o e_l with k < l
        idx = 0
        for k in range(4):
            for l in range(k + 1, 4):
                assert abs(mat[idx, idx] - r.components[k, l, k, l]) <= 1e-12
                idx += 1

    def test_unnormalized_pairing_identity(self):
        r = random_curvature(5, seed=23)
        e = np.eye(5)
        c = r.components
        for (i, j, k, l) in [(0, 1, 2, 3), (0, 2, 1, 4), (1, 3, 0, 2)]:
            lhs = np.einsum(
                "ijkl,il,jk->", c, sym_product(e[i], e[j]), sym_product(e[k], e[l])
            )
            assert abs(lhs - 2.0 * (c[i, k, l, j] + c[i, l, k, j])) <= 1e-12

    def test_symmetric(self):
        mat = operator_matrix(random_curvature(4, seed=3), standard_basis(4))
        assert np.abs(mat - mat.T).max() <= 1e-12

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            operator_matrix(space_form(3, 1.0), standard_basis(4))

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in range(2, 13) for seed in (1, 2)]
                             + [(32, 1)])
    def test_standard_basis_bitwise_equals_einsum(self, n, seed):
        r = random_curvature(n, seed=seed)
        basis = standard_basis(n)
        assert np.array_equal(operator_matrix(r, basis), operator_matrix_einsum(r, basis))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_kahler_basis_bitwise_equals_einsum(self, m):
        r = random_kahler_curvature(m, seed=50 + m)
        model = kahler_space_form(m, 0.5)
        for tensor, basis in [(r, kahler_basis(m)[0]), (r, standard_basis(2 * m)),
                              (model, kahler_basis(m)[0])]:
            assert np.array_equal(operator_matrix(tensor, basis),
                                  operator_matrix_einsum(tensor, basis))

    @pytest.mark.parametrize("make,n1,n2", [
        (lambda: (space_form(3, 1.0), flat_tensor(1)), 3, 1),
        (lambda: (space_form(2, 1.0), space_form(3, 0.5)), 2, 3),
        (lambda: (space_form(3, -2.0), space_form(3, -0.25)), 3, 3),
        (lambda: (kahler_space_form(1, 1.0), kahler_space_form(2, 0.5)), 2, 4),
        (lambda: (random_curvature(3, seed=61), random_curvature(4, seed=62)), 3, 4),
    ])
    def test_product_bases_bitwise_equal_einsum(self, make, n1, n2):
        r1, r2 = make()
        r = product(r1, r2)
        for basis in (product_adapted_basis(n1, n2), standard_basis(n1 + n2)):
            assert np.array_equal(operator_matrix(r, basis), operator_matrix_einsum(r, basis))


class TestSpectrum:
    def test_product_sphere_clusters(self):
        s = spectrum(product(space_form(2, 1.0), space_form(3, 1.0)))
        assert clusters_match(numerics.cluster_spectrum(s), [(-7.0 / 5.0, 1), (0.0, 6), (1.0, 7)])

    def test_cp1_x_cp1_clusters(self):
        r1 = kahler_space_form(1, 1.0)
        r2 = kahler_space_form(1, 1.0)
        s = spectrum(product(r1, r2))
        assert clusters_match(numerics.cluster_spectrum(s), [(-4.0, 1), (0.0, 4), (4.0, 4)])

    def test_flat_dim5(self):
        s = spectrum(flat_tensor(5))
        assert clusters_match(numerics.cluster_spectrum(s), [(0.0, 14)])

    def test_rejects_dim1(self):
        with pytest.raises(InvalidInputError):
            spectrum(flat_tensor(1))

    def test_is_the_eigensolved_operator_array(self):
        r = random_curvature(5, seed=8)
        s = spectrum(r)
        assert type(s) is np.ndarray and s.ndim == 1 and s.dtype == np.float64
        expected = numerics.eigensolve(operator_matrix(r, standard_basis(5)))
        assert s.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: space_form(4, 1.0),
        lambda: space_form(3, -2.0),
        lambda: kahler_space_form(2, 1.0),
        lambda: product(space_form(2, 1.0), space_form(3, 1.0)),
        lambda: random_curvature(5, seed=8),
    ])
    def test_trace_identity(self, make):
        r = make()
        s = spectrum(r)
        n = r.dim
        assert abs(s.sum() - (n + 2) / (2.0 * n) * scalar(r)) <= 1e-9


class TestClustersOnFirstRead:
    """A spectrum is the ascending eigenvalue array; the solve, the
    harnesses and the oracle read it alone and never cluster it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = numerics.cluster_spectrum

        def counting(values):
            calls.append(len(values))
            return real(values)

        monkeypatch.setattr(numerics, "cluster_spectrum", counting)
        return calls

    def test_spectrum_does_not_cluster(self, calls):
        spectrum(product(space_form(3, 1.0), flat_tensor(1)))
        assert calls == []

    def test_harness_and_oracle_do_not_cluster(self, calls):
        assert check_rigidity("line", {"n": 5}, samples=5).samples_run == 5
        bruteforce_min_alpha_sum(random_curvature(4, seed=3), 2.5, samples=5, seed=1)
        assert calls == []


class TestAlphaSum:
    def line_spectrum(self):
        return spectrum(product(space_form(3, 1.0), flat_tensor(1)))

    def test_line_at_4_5(self):
        assert abs(alpha_sum(self.line_spectrum(), 4.5)) <= 1e-12

    def test_line_at_4(self):
        assert alpha_sum(self.line_spectrum(), 4.0) == pytest.approx(-0.5, abs=1e-12)

    def test_full_range_equals_trace(self):
        r = random_curvature(4, seed=5)
        s = spectrum(r)
        assert abs(alpha_sum(s, len(s)) - (r.dim + 2) / (2.0 * r.dim) * scalar(r)) <= 1e-9

    def test_rejects_out_of_range(self):
        s = self.line_spectrum()
        for alpha in (0.5, 9.5):
            with pytest.raises(InvalidInputError):
                alpha_sum(s, alpha)

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=25, deadline=None)
    def test_piecewise_linear_convex(self, seed):
        s = spectrum(random_curvature(4, seed))
        alphas = np.linspace(1.0, len(s), 33)
        values = [alpha_sum(s, a) for a in alphas]
        slopes = np.diff(values) / np.diff(alphas)
        assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))
        # interpolation consistency on one segment
        g2, g3 = alpha_sum(s, 2.0), alpha_sum(s, 3.0)
        assert alpha_sum(s, 2.25) == pytest.approx(g2 + 0.25 * (g3 - g2), abs=1e-12)


class TestClassify:
    def test_round_sphere_three_nonnegative(self):
        assert classify(space_form(4, 1.0), 3.0) == "nonnegative"

    def test_hyperbolic_three_nonpositive(self):
        assert classify(space_form(4, -1.0), 3.0) == "nonpositive"

    def test_line_at_threshold(self):
        r = product(space_form(3, 1.0), flat_tensor(1))
        assert classify(r, 4.5) == "nonnegative"

    def test_flat_reports_both(self):
        assert classify(flat_tensor(4), 3.0) == "both"

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=20, deadline=None)
    def test_sign_symmetry(self, seed):
        r = random_curvature(4, seed)
        for alpha in (1.0, 4.5, 9.0):
            v = classify(r, alpha)
            flipped = {"nonnegative": "nonpositive", "nonpositive": "nonnegative"}
            assert classify(CurvatureTensor(-r.components), alpha) == flipped.get(v, v)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        with pytest.raises(InvalidInputError, match="nonnegative and finite"):
            classify(flat_tensor(3), 2.0, tol=tol)

    def test_verdict_matches_negated_spectrum_reference(self):
        # the nonpositive side reads the reversed negation of the eigenvalues
        # instead of building and clustering the negated spectrum; tol = 0
        # is allowed
        names = {(True, True): "both", (True, False): "nonnegative",
                 (False, True): "nonpositive", (False, False): "neither"}
        tensors = (space_form(3, 1.0), product(space_form(3, -1.0), flat_tensor(1)),
                   random_curvature(4, 3), flat_tensor(3))
        for r in tensors:
            s = spectrum(r)
            neg = negate_spectrum(s)
            for alpha in (1.0, 2.5, 4.5, float(len(s))):
                for tol in (0.0, 1e-9):
                    nonneg = alpha_sum(s, alpha) >= -tol
                    nonpos = alpha_sum(neg, alpha) >= -tol
                    assert verdict(s, alpha, tol) == names[nonneg, nonpos]


class TestThresholds:
    def test_line_threshold(self):
        s = spectrum(product(space_form(3, 1.0), flat_tensor(1)))
        assert nonneg_threshold(s) == pytest.approx(4.5, abs=1e-12)

    def test_product_sphere_threshold(self):
        s = spectrum(product(space_form(2, 1.0), space_form(2, 1.0)))
        assert nonneg_threshold(s) == pytest.approx(6.0, abs=1e-12)

    def test_positive_spectrum_threshold_is_one(self):
        assert nonneg_threshold(spectrum(space_form(4, 1.0))) == 1.0

    def test_all_negative_has_no_threshold(self):
        assert nonneg_threshold(spectrum(space_form(4, -1.0))) is None

    def test_nonpos_threshold_mirrors(self):
        s = spectrum(product(space_form(3, -1.0), flat_tensor(1)))
        assert nonpos_threshold(s) == pytest.approx(4.5, abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: spectrum(random_curvature(5, seed=71)),
        lambda: spectrum(product(space_form(3, -1.0), flat_tensor(1))),
        lambda: spectrum(product(space_form(2, 1.0), space_form(3, -0.5))),
        lambda: spectrum(space_form(4, 1.0)),    # nonpos threshold None
        lambda: spectrum(space_form(4, -1.0)),   # nonneg threshold None
        lambda: spectrum(flat_tensor(3)),        # flat: both 1.0
        lambda: spectrum_from_eigenvalues([-0.0, 0.0, 0.0, -0.0, 0.0]),
        lambda: spectrum_from_eigenvalues([-2.0, -0.5, -0.5, 1.0, 1.0]),
    ])
    def test_nonpos_threshold_equals_negated_spectrum_threshold(self, make):
        s = make()
        expected = nonneg_threshold(negate_spectrum(s))
        got = nonpos_threshold(s)
        assert got == expected and type(got) is type(expected)

    def test_threshold_value_is_exact_root(self):
        s = spectrum_from_eigenvalues([-1.0, -0.25, 0, 0, 0.5, 1, 1, 1, 2])
        thr = nonneg_threshold(s)
        assert alpha_sum(s, thr) == pytest.approx(0.0, abs=1e-12)
        assert alpha_sum(s, thr - 1e-6) < 0


# signed zeros, values at and next to the classification tolerance, and
# repeats of a few values, so that ties and zeros of both signs are common
_EDGE_VALUES = st.sampled_from([
    -0.0, 0.0, CLASSIFY_TOL, -CLASSIFY_TOL, 2 * CLASSIFY_TOL, -2 * CLASSIFY_TOL,
    0.5 * CLASSIFY_TOL, -0.5 * CLASSIFY_TOL, 1.0, -1.0, 0.25, -0.25, 3.0, -3.0,
])
_VALUES = st.one_of(_EDGE_VALUES, st.floats(-4.0, 4.0, allow_subnormal=False))


@st.composite
def edge_spectra(draw):
    n = draw(st.integers(2, 4))
    values = draw(st.lists(_VALUES, min_size=sym2_dim(n), max_size=sym2_dim(n)))
    return spectrum_from_eigenvalues(values)


class TestNegatedReadings:
    """The negated tensor's verdict and threshold, read off the tensor's own
    eigenvalues, against the sorted negation."""

    @settings(max_examples=400, deadline=None)
    @given(s=edge_spectra(), fraction=st.floats(0.0, 1.0),
           tol=st.sampled_from([0.0, CLASSIFY_TOL]))
    def test_mapped_verdict_and_threshold_equal_reference_negation(self, s, fraction, tol):
        neg = negate_spectrum(s)
        alpha = 1.0 + fraction * (len(s) - 1)
        assert NEGATED_VERDICT[verdict(s, alpha, tol)] == verdict(neg, alpha, tol)
        got, expected = nonpos_threshold(s), nonneg_threshold(neg)
        if expected is None:
            assert got is None
        else:
            assert type(got) is float and got.hex() == expected.hex()

    def test_mapping_swaps_the_signs_and_keeps_both_and_neither(self):
        assert NEGATED_VERDICT == {"nonnegative": "nonpositive", "nonpositive": "nonnegative",
                                   "both": "both", "neither": "neither"}


class TestBruteforceOracle:
    def test_eigenbasis_sample_matches_alpha_sum(self):
        r = random_curvature(4, seed=12)
        s = spectrum(r)
        for alpha in (1.0, 2.5, 4.0, float(len(s))):
            result = bruteforce_min_alpha_sum(r, alpha, samples=30, seed=99)
            assert abs(result.sample_values[0] - alpha_sum(s, alpha)) <= 1e-9

    def test_round_sphere_all_bases_equal(self):
        result = bruteforce_min_alpha_sum(space_form(3, 1.0), 2.0, samples=100, seed=0)
        assert min(result.sample_values) == pytest.approx(2.0, abs=1e-9)

    def test_samples_bounded_below_by_eigen_minimum(self):
        r = random_curvature(5, seed=77)
        s = spectrum(r)
        result = bruteforce_min_alpha_sum(r, 3.5, samples=200, seed=5)
        floor = alpha_sum(s, 3.5)
        assert all(v >= floor - 1e-8 for v in result.sample_values)
        assert min(result.sample_values) == pytest.approx(floor, abs=1e-9)

    def test_deterministic_per_seed(self):
        r = random_curvature(4, seed=2)
        a = bruteforce_min_alpha_sum(r, 2.0, samples=10, seed=8)
        b = bruteforce_min_alpha_sum(r, 2.0, samples=10, seed=8)
        assert a.sample_values == b.sample_values
        assert a.argmin_digest == b.argmin_digest

    @staticmethod
    def per_sample_reference(mat, alpha, samples, seed):
        """One einsum and one weighted sum per sample, sample s seeded by seed ^ s."""
        k = int(math.floor(alpha))
        frac = alpha - k if k < len(mat) else 0.0
        values = []
        for s in range(1, samples + 1):
            q = numerics.random_orthonormal_families(len(mat), [seed ^ s])[0]
            d = np.sort(np.einsum("ai,ij,aj->a", q, mat, q))
            values.append(d[:k].sum() + (frac * d[k] if frac > 0.0 else 0.0))
        return values

    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 1000])
    def test_blocks_match_per_sample_reference(self, samples):
        r = random_curvature(4, seed=21)
        mat = operator_matrix(r, standard_basis(4))
        seed = 1234
        result = bruteforce_min_alpha_sum(r, 3.5, samples=samples, seed=seed)
        assert len(result.sample_values) == samples + 1
        expected = self.per_sample_reference(mat, 3.5, samples, seed)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(mat)))
        assert np.abs(np.array(result.sample_values[1:]) - expected).max() <= tol

    @staticmethod
    def digest(array):
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]

    def test_argmin_digest_is_the_redrawn_basis(self):
        # at alpha = N every basis gives the trace, so the argmin falls on a
        # sample that ties the eigenbasis to rounding
        r = random_curvature(4, seed=22)
        mat = operator_matrix(r, standard_basis(4))
        result = bruteforce_min_alpha_sum(r, float(len(mat)), samples=200, seed=9)
        assert result.argmin_sample > 0
        seed = 9 ^ result.argmin_sample
        q = numerics.random_orthonormal_families(len(mat), [seed])[0]
        assert result.argmin_digest == self.digest(q)

    def test_block_shrinks_with_width(self):
        assert [operator2k._oracle_block(n) for n in (2, 20, 27, 28, 44, 77, 527)] == [
            64, 64, 64, 59, 24, 7, 1]

    def test_narrow_blocks_match_64_sample_blocks(self, monkeypatch):
        # n = 9 gives N = 44, so the oracle stacks 24 samples per block
        r = random_curvature(9, seed=31)
        narrow = bruteforce_min_alpha_sum(r, 7.5, samples=70, seed=5)
        monkeypatch.setattr(operator2k, "_oracle_block", lambda n_dim: 64)
        wide = bruteforce_min_alpha_sum(r, 7.5, samples=70, seed=5)
        assert narrow.sample_values == wide.sample_values
        assert narrow.argmin_sample == wide.argmin_sample
        assert narrow.argmin_digest == wide.argmin_digest

    def test_rejects_samples_above_bound_before_sampling(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("sampled before checking the bound")

        monkeypatch.setattr(operator2k, "standard_basis", boom)
        with pytest.raises(InvalidInputError, match="exceed the limit"):
            bruteforce_min_alpha_sum(space_form(3, 1.0), 2.0,
                                     samples=operator2k.MAX_SAMPLES + 1, seed=0)

    def test_argmin_digest_is_the_eigenbasis(self):
        r = random_curvature(4, seed=23)
        mat = operator_matrix(r, standard_basis(4))
        result = bruteforce_min_alpha_sum(r, 2.5, samples=100, seed=3)
        assert result.argmin_sample == 0
        assert result.argmin_digest == self.digest(numerics.eigensolve(mat, vectors=True)[1])


class TestWeightedPartialSums:
    def test_stack_rows_equal_single_rows_bitwise(self):
        rows = np.sort(numerics.seeded_stream(5).standard_normal((40, 9)), axis=1)
        for alpha in (1.0, 2.5, 4.0, 8.75, 9.0):
            stacked = weighted_partial_sums(rows, alpha)
            assert stacked.shape == (40,)
            assert stacked.tolist() == [float(weighted_partial_sums(row, alpha)) for row in rows]

    def test_matches_alpha_sum_and_f_lemma(self):
        s = spectrum(random_curvature(4, seed=24))
        for alpha in (1.0, 3.25, float(len(s))):
            value = float(weighted_partial_sums(s, alpha))
            assert value == alpha_sum(s, alpha) == f_lemma(s, alpha)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(InvalidInputError, match="alpha must lie"):
            weighted_partial_sums(np.zeros((3, 4)), 4.5)


def test_hot_path_never_runs_jacobi():
    # cyclic Jacobi is the tests' reference only; no module of the package
    # can reach it, so the hot path runs LAPACK alone
    modules = [importlib.import_module(f"secondkind.{info.name}")
               for info in pkgutil.iter_modules(secondkind.__path__)
               if info.name != "__main__"]
    for module in [secondkind, *modules]:
        assert not [name for name in vars(module) if "jacobi" in name.lower()], module
    r = random_curvature(4, seed=6)
    s = spectrum(r)
    assert classify(r, 2.5) in ("nonnegative", "nonpositive", "both", "neither")
    result = bruteforce_min_alpha_sum(r, 2.5, samples=5, seed=1)
    assert abs(result.sample_values[0] - alpha_sum(s, 2.5)) <= 1e-12


class TestProductBlockStructure:
    def test_xi_rows_vanish_for_arbitrary_factors(self):
        r1 = random_curvature(3, seed=31)
        r2 = random_curvature(2, seed=32)
        basis = product_adapted_basis(3, 2)
        mat = operator_matrix(product(r1, r2), basis)
        # layout [5 | 2 | 6 | 1]: the mixed rows are 7..12
        assert np.abs(mat[7:-1]).max() <= 1e-12

    def test_einstein_block_diagonal_with_zeta_value(self):
        r1 = space_form(3, 2.0)          # rho = 4
        r2 = kahler_space_form(1, 1.0)  # rho = 4
        rho1, rho2 = einstein_constant(r1), einstein_constant(r2)
        basis = product_adapted_basis(3, 2)
        mat = operator_matrix(product(r1, r2), basis)
        off = mat.copy()
        off[:5, :5] = 0.0
        off[5:7, 5:7] = 0.0
        xi = np.arange(7, basis.count - 1)  # layout [5 | 2 | 6 | 1]
        off[xi, xi] = 0.0
        expected_zeta = -(2 * rho1 + 3 * rho2) / 5.0
        assert abs(mat[-1, -1] - expected_zeta) <= 1e-10
        off[-1, -1] = 0.0
        assert np.abs(off).max() <= 1e-10

    def test_product_spectrum_multiset(self):
        r1 = space_form(2, 1.0)
        r2 = space_form(3, 0.5)
        rho1, rho2 = 1.0, 1.0
        predicted = np.sort(np.concatenate([
            spectrum(r1),
            spectrum(r2),
            np.zeros(6),
            [-(3 * rho1 + 2 * rho2) / 5.0],
        ]))
        computed = spectrum(product(r1, r2))
        assert np.abs(computed - predicted).max() <= 1e-9


class TestKahlerFamilyTraces:
    @pytest.mark.parametrize("make,m", [
        (lambda: kahler_space_form(2, 1.0), 2),
        (lambda: kahler_space_form(3, 0.5), 3),
        (lambda: random_kahler_curvature(2, seed=41), 2),
        (lambda: random_kahler_curvature(3, seed=43), 3),
    ])
    def test_invariant_family_trace_identities(self, make, m):
        r = make()
        basis, labels = kahler_basis(m)
        mat = operator_matrix(r, basis)
        s = scalar(r)
        minus_eta = sum(
            mat[a, a] for a, lab in enumerate(labels) if lab in ("minus", "eta")
        )
        plus_alpha = sum(
            mat[a, a] for a, lab in enumerate(labels) if lab in ("plus", "alpha")
        )
        assert abs(minus_eta - (-(m - 1) / (2.0 * m) * s)) <= 1e-10
        assert abs(plus_alpha - s) <= 1e-10

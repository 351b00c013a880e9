import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondkind import cli, curvature
from secondkind.curvature import (
    CurvatureTensor,
    constant_holomorphic,
    constant_sectional,
    einstein_constant,
    flat_tensor,
    kahler_space_form,
    product,
    random_curvature,
    random_kahler_curvature,
    ricci,
    scalar,
    space_form,
    standard_complex_structure,
)
from secondkind.errors import InvalidInputError
from secondkind.numerics import seeded_stream

from reference import (
    constant_holomorphic_model,
    constant_sectional_model,
    einstein_constant_model,
    kahler_model_components,
    space_form_components,
)


def symmetry_errors(r):
    c = r.components
    return max(
        np.abs(c + np.einsum("jikl->ijkl", c)).max(),
        np.abs(c + np.einsum("ijlk->ijkl", c)).max(),
        np.abs(c - np.einsum("klij->ijkl", c)).max(),
        np.abs(c + np.einsum("jkil->ijkl", c) + np.einsum("kijl->ijkl", c)).max() / 3.0,
    )


class TestSpaceForm:
    def test_flat_case_is_zero(self):
        assert np.abs(space_form(3, 0.0).components).max() == 0.0

    def test_single_plane(self):
        r = space_form(2, -1.0)
        assert r.components[0, 1, 0, 1] == -1.0

    def test_sectional_curvature_of_coordinate_planes(self):
        r = space_form(4, 2.5)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert r.components[i, j, i, j] == 2.5

    def test_rejects_dim1(self):
        with pytest.raises(InvalidInputError):
            space_form(1, 1.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_bitwise_equal_to_einsum_form(self, n):
        d = np.eye(n)
        for c in (1.0, -0.25, 3.0, 1.0 / 3.0, 1e300):
            reference = c * (np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d))
            assert np.array_equal(space_form(n, c).components, reference)


class TestKahlerSpaceForm:
    def test_m1_equals_round_sphere(self):
        r = kahler_space_form(1, 1.0)
        assert np.abs(r.components - space_form(2, 4.0).components).max() <= 1e-12

    def test_m1_flat(self):
        r = kahler_space_form(1, 0.0)
        assert np.abs(r.components).max() == 0.0

    def test_holomorphic_planes(self):
        r = kahler_space_form(2, 1.0)
        # R(X, JX, X, JX) = 4 kappa on unit holomorphic planes
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            jx = standard_complex_structure(2) @ x
            val = np.einsum("ijkl,i,j,k,l->", r.components, x, jx, x, jx)
            assert abs(val - 4.0) < 1e-12

    def test_einstein_with_expected_constant(self):
        for m, kappa in [(1, 1.0), (2, 0.5), (3, 2.0)]:
            r = kahler_space_form(m, kappa)
            rho = einstein_constant(r)
            assert rho is not None
            assert abs(rho - 2 * (m + 1) * kappa) <= 1e-12

    def test_rejects_m0(self):
        with pytest.raises(InvalidInputError):
            kahler_space_form(0, 1.0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_bitwise_equal_to_einsum_form(self, m):
        jm = standard_complex_structure(m)
        d = np.eye(2 * m)
        for kappa in (1.0, -0.5, 1.0 / 3.0):
            reference = kappa * (
                np.einsum("ik,jl->ijkl", d, d)
                - np.einsum("il,jk->ijkl", d, d)
                + np.einsum("ki,lj->ijkl", jm, jm)
                - np.einsum("li,kj->ijkl", jm, jm)
                + 2.0 * np.einsum("ji,lk->ijkl", jm, jm)
            )
            assert np.array_equal(kahler_space_form(m, kappa).components, reference)


class TestCachedUnitTensors:
    """The model tensors are a cached checked unit times the curvature; the
    components must be bitwise those built from scratch, and the check that
    each unit passed once must decide every product as a re-check would."""

    CURVATURES = (0.25, 1.0 / 3.0, -2.0, 0.0, 1e150)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_space_form_bitwise_equal_to_uncached_formula(self, n):
        for c in self.CURVATURES:
            expected = space_form_components(n, c).tobytes()
            assert space_form(n, c).components.tobytes() == expected

    @pytest.mark.parametrize("m", range(1, 5))
    def test_kahler_bitwise_equal_to_uncached_formula(self, m):
        jm = standard_complex_structure(m)
        for kappa in self.CURVATURES:
            expected = kahler_model_components(jm, kappa).tobytes()
            assert kahler_space_form(m, kappa).components.tobytes() == expected

    def test_units_are_read_only_and_not_shared_with_tensors(self):
        for unit, tensor in ((curvature._unit_space_form(3), space_form(3, 1.0)),
                             (curvature._unit_kahler_space_form(2), kahler_space_form(2, 1.0))):
            assert isinstance(unit, CurvatureTensor)
            assert not unit.components.flags.writeable
            with pytest.raises(ValueError):
                unit.components[0, 1, 0, 1] = 5.0
            assert not np.shares_memory(unit.components, tensor.components)
            assert not tensor.components.flags.writeable

    def test_caches_are_bounded(self):
        for n in range(2, 14):
            space_form(n, 1.0)
        for m in range(1, 11):
            kahler_space_form(m, 1.0)
        for n in range(1, 13):
            flat_tensor(n)
            random_curvature(n + 1, 0)
        for m in range(1, 11):
            random_kahler_curvature(m, 0)
        for cached in (curvature._unit_space_form, curvature._unit_kahler_space_form,
                       flat_tensor, curvature._pair_placements, curvature._j_pullbacks):
            info = cached.cache_info()
            assert info.maxsize == 8 and info.currsize == 8
        # the unit caches hold the checked tensors, one n**4 array per entry
        assert isinstance(curvature._unit_space_form(13), CurvatureTensor)
        assert isinstance(curvature._unit_kahler_space_form(10), CurvatureTensor)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_model_tensors_are_still_checked(self, bad):
        with np.errstate(invalid="ignore"):  # inf * 0
            for build in (lambda: space_form(3, bad), lambda: kahler_space_form(2, bad)):
                with pytest.raises(InvalidInputError, match="components must be finite"):
                    build()


# (unit, its peak, model builder) for every cached size the tests pin
UNIT_SIZES = (
    [("space", n) for n in (*range(2, 13), 32)]
    + [("kahler", m) for m in (*range(1, 7), 16)]
)
UNIT_KINDS = {
    "space": (curvature._unit_space_form, 1.0, space_form),
    "kahler": (curvature._unit_kahler_space_form, 4.0, kahler_space_form),
}
SCALES = (0.25, -0.25, 0.3, 1.0 / 3.0, 7.1, 1e-300, 5e-324, 1e300,
          np.nan, np.inf, -np.inf)


def _outcome(build):
    """("ok", component bytes) or ("error", message) of a build, with
    numpy's floating-point warnings silenced."""
    with np.errstate(all="ignore"):
        try:
            return "ok", build().components.tobytes()
        except InvalidInputError as exc:
            return "error", str(exc)


class TestScaledUnits:
    """A model tensor is its checked unit times the curvature and is not
    checked again; that is sound because every unit entry is 0, +-1, +-2 or
    +-4 (see ``curvature._scaled``)."""

    @pytest.mark.parametrize("kind, size", UNIT_SIZES)
    def test_unit_entries_are_powers_of_two_with_the_stated_peak(self, kind, size):
        unit, peak, _ = UNIT_KINDS[kind]
        values = set(np.unique(unit(size).components).tolist())
        assert values <= {0.0, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0}
        assert float(np.abs(unit(size).components).max()) == peak
        if kind == "kahler" and size == 1:
            assert values == {0.0, 4.0, -4.0}

    @pytest.mark.parametrize("kind, size", UNIT_SIZES)
    def test_model_equals_a_full_recheck_of_the_product(self, kind, size):
        unit, _, model = UNIT_KINDS[kind]
        for c in SCALES:
            expected = _outcome(lambda: CurvatureTensor(c * unit(size).components))
            assert _outcome(lambda: model(size, c)) == expected, c

    @given(st.sampled_from([("space", n) for n in range(2, 6)]
                           + [("kahler", m) for m in range(1, 4)]),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_model_equals_a_full_recheck_for_any_finite_curvature(self, kind_size, c):
        kind, size = kind_size
        unit, _, model = UNIT_KINDS[kind]
        expected = _outcome(lambda: CurvatureTensor(c * unit(size).components))
        assert _outcome(lambda: model(size, c)) == expected

    def test_largest_finite_kahler_peak_builds(self):
        r = kahler_space_form(1, 4e307)
        assert float(np.abs(r.components).max()) == 1.6e308

    def test_overflowing_kahler_peak_is_rejected(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(InvalidInputError, match="components must be finite"):
                kahler_space_form(1, 4.5e307)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            kahler_space_form(1, 4.5e307)

    def test_overflowing_kahler_peak_exits_3_on_the_command_line(self, tmp_path, capsys):
        path = tmp_path / "cp1.json"
        path.write_text('{"kind": "cp", "m": 1, "kappa": 4.5e307}')
        assert cli.run(["spectrum", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: overflow encountered in multiply\n"


class TestComplexStructure:
    def test_standard_structure_valid(self):
        j = standard_complex_structure(3)
        assert j.shape == (6, 6)
        # J e_i = e_{m+i} and J e_{m+i} = -e_i
        assert np.array_equal(j @ np.eye(6)[0], np.eye(6)[3])
        assert np.array_equal(j @ np.eye(6)[3], -np.eye(6)[0])


class TestProduct:
    def test_blocks_equal_inputs_bitwise(self):
        r1 = space_form(2, 1.0)
        r2 = space_form(3, -2.0)
        r = product(r1, r2)
        assert np.array_equal(r.components[:2, :2, :2, :2], r1.components)
        assert np.array_equal(r.components[2:, 2:, 2:, 2:], r2.components)

    def test_mixed_components_zero(self):
        r = product(random_curvature(3, 1), random_curvature(2, 2))
        comp = r.components.copy()
        comp[:3, :3, :3, :3] = 0.0
        comp[3:, 3:, 3:, 3:] = 0.0
        assert np.abs(comp).max() == 0.0

    def test_scalar_additivity(self):
        r1 = random_curvature(3, 10)
        r2 = random_curvature(4, 11)
        assert abs(scalar(product(r1, r2)) - scalar(r1) - scalar(r2)) <= 1e-12

    def test_dim1_factor(self):
        r = product(space_form(3, 1.0), flat_tensor(1))
        assert r.dim == 4 and abs(scalar(r) - 6.0) <= 1e-12


class TestCheckOnce:
    """A tensor is checked when it is made from numbers; products of checked
    tensors are built without a re-check, so an explicit re-check must pass
    on each of them and on their negations."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_products_and_negations_pass_a_recheck(self, n):
        a = random_curvature(n, n)
        b = random_curvature(2 + n % 3, 100 + n)
        c = random_kahler_curvature(1 + n % 2, 200 + n)
        for t in (a, product(a, b), product(b, a, c), product(c, product(a, b))):
            CurvatureTensor(t.components)
            CurvatureTensor(-t.components)

    def test_nary_product_equals_the_fold_bitwise(self):
        a, b, c = random_curvature(3, 1), space_form(2, -0.5), kahler_space_form(2, 1.5)
        assert np.array_equal(product(a, b, c).components,
                              product(product(a, b), c).components)
        assert np.array_equal(product(a, b, c).components,
                              product(a, product(b, c)).components)

    def test_components_are_a_frozen_copy(self):
        arr = space_form(3, 1.0).components.copy()
        r = CurvatureTensor(arr)
        arr[0, 1, 0, 1] = 7.0
        assert r.components[0, 1, 0, 1] == 1.0
        for t in (r, CurvatureTensor(-r.components), product(r, r)):
            assert not t.components.flags.writeable
            with pytest.raises(ValueError):
                t.components[0, 1, 0, 1] = 7.0

    @pytest.mark.parametrize("factors", [
        (space_form(2, 1.0), space_form(2, 1.0).components),
        (space_form(2, 1.0), None),
        (space_form(2, 1.0),),
        (),
    ], ids=["array", "none", "one-factor", "no-factor"])
    def test_product_rejects_unchecked_or_too_few_factors(self, factors):
        with pytest.raises(InvalidInputError):
            product(*factors)

    def test_flat_tensor_is_shared_and_frozen(self):
        r = flat_tensor(1)
        assert flat_tensor(1) is r
        assert not r.components.flags.writeable
        with pytest.raises(ValueError):
            r.components[0, 0, 0, 0] = 1.0

    def test_standard_complex_structure_is_shared_and_frozen(self):
        # the one complex structure: an exact orthogonal square root of -I,
        # one read-only matrix per m
        for m in range(1, 7):
            j = standard_complex_structure(m)
            eye = np.eye(2 * m)
            assert np.array_equal(j @ j, -eye)
            assert np.array_equal(j.T @ j, eye)
            assert standard_complex_structure(m) is j
            assert not j.flags.writeable
            with pytest.raises(ValueError):
                j[0, 0] = 1.0

    @staticmethod
    def count_checks(monkeypatch):
        """List that gets one entry per run of the ``CurvatureTensor`` check."""
        real = CurvatureTensor.__post_init__
        calls = []

        def counting(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(CurvatureTensor, "__post_init__", counting)
        return calls

    def test_model_units_are_checked_once_per_size(self, monkeypatch, capsys):
        curvature._unit_space_form.cache_clear()
        curvature._unit_kahler_space_form.cache_clear()
        calls = self.count_checks(monkeypatch)
        descriptors = Path(__file__).resolve().parents[1] / "descriptors"
        # s2xs2: the one unit of dimension 2 is checked on the first request
        for expected in (1, 0):
            calls.clear()
            assert cli.run(["spectrum", str(descriptors / "s2xs2.json")]) == 0
            assert json.loads(capsys.readouterr().out)["n"] == 4
            assert len(calls) == expected
        # tensors made from numbers are checked on every request
        calls.clear()
        assert cli.run(["spectrum", str(descriptors / "custom_flat2.json")]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        calls.clear()
        random_curvature(4, 0)
        assert len(calls) == 1

class TestContractions:
    def test_space_form_ricci(self):
        r = space_form(3, 1.0)
        np.testing.assert_allclose(ricci(r), 2.0 * np.eye(3), atol=1e-14)
        assert abs(scalar(r) - 6.0) <= 1e-14

    def test_kahler_ricci(self):
        r = kahler_space_form(2, 1.0)
        np.testing.assert_allclose(ricci(r), 6.0 * np.eye(4), atol=1e-14)

    def test_product_ricci_blocks(self):
        r = product(space_form(2, 1.0), space_form(3, 1.0))
        np.testing.assert_allclose(ricci(r), np.diag([1.0, 1.0, 2.0, 2.0, 2.0]), atol=1e-14)

    def test_ricci_symmetric_on_random(self):
        ric = ricci(random_curvature(5, 3))
        assert np.abs(ric - ric.T).max() <= 1e-12


class TestDetectors:
    def test_einstein_space_form(self):
        assert einstein_constant(space_form(4, 1.0)) == pytest.approx(3.0, abs=1e-12)

    def test_einstein_absent_for_mixed_product(self):
        assert einstein_constant(product(space_form(2, 1.0), space_form(3, 1.0))) is None

    def test_einstein_equal_factors(self):
        r = product(space_form(2, 1.0), space_form(2, 1.0))
        assert einstein_constant(r) == pytest.approx(1.0, abs=1e-12)

    def test_constant_sectional_detects(self):
        assert constant_sectional(space_form(5, -2.0)) == pytest.approx(-2.0, abs=1e-12)

    def test_constant_sectional_rejects_kahler(self):
        r = kahler_space_form(2, 1.0)
        assert constant_sectional(r) is None

    def test_constant_sectional_flat(self):
        assert constant_sectional(flat_tensor(3)) == pytest.approx(0.0, abs=1e-15)

    def test_constant_holomorphic_detects(self):
        r = kahler_space_form(2, 1.0)
        assert constant_holomorphic(r) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_constant_holomorphic_reads_m_from_dim(self, m):
        for kappa in (0.25, -2.0):
            assert constant_holomorphic(kahler_space_form(m, kappa)) == pytest.approx(
                4.0 * kappa, abs=1e-12)

    @pytest.mark.parametrize("m", range(2, 5))
    def test_constant_holomorphic_none_on_random_kahler(self, m):
        for seed in (0, 1, 146):
            assert constant_holomorphic(random_kahler_curvature(m, seed)) is None

    def test_constant_holomorphic_rejects_round_sphere(self):
        assert constant_holomorphic(space_form(4, 1.0)) is None

    def test_constant_holomorphic_flat(self):
        assert constant_holomorphic(flat_tensor(4)) == pytest.approx(0.0, abs=1e-15)

    def test_constant_holomorphic_dim_mismatch(self):
        # no complex structure fits an odd dimension
        with pytest.raises(InvalidInputError, match="needs even dimension, got 3"):
            constant_holomorphic(space_form(3, 1.0))

    @staticmethod
    def detector_inputs():
        """Space forms (n = 2..8) and Kahler forms (m = 1..4) at a few
        curvatures, each also perturbed by 1e-7 times a seeded random tensor
        of its kind, and 20 seeded random tensors of each size."""
        kinds = [(n, space_form, random_curvature) for n in range(2, 9)]
        kinds += [(m, kahler_space_form, random_kahler_curvature) for m in range(1, 5)]
        for size, model, draw in kinds:
            for i, c in enumerate((-2.0, -0.25, 0.5, 1.0, 3.0)):
                form = model(size, c)
                yield form
                yield CurvatureTensor(form.components + 1e-7 * draw(size, i).components)
            for seed in range(20):
                yield draw(size, seed)

    def test_detectors_equal_the_model_tensor_references(self):
        # the detectors compare against the cached unit tensor times the
        # curvature, the product that space_form and kahler_space_form
        # compute, so they return what a comparison against those tensors
        # returns, bit for bit
        pairs = [(einstein_constant, einstein_constant_model),
                 (constant_sectional, constant_sectional_model),
                 (constant_holomorphic, constant_holomorphic_model)]
        outcomes = {detect: set() for detect, _ in pairs}
        for r in self.detector_inputs():
            for detect, reference in pairs:
                if detect is constant_holomorphic and r.dim % 2:
                    continue
                value = detect(r)
                assert repr(value) == repr(reference(r))
                outcomes[detect].add(value is None)
        # each detector both recognises and rejects somewhere in the set
        assert all(seen == {True, False} for seen in outcomes.values())


def pair_loop_random_curvature(n, seed):
    """Reference: the sampler's tensor filled by a double loop over index
    pairs, one entry and its three antisymmetric partners at a time."""
    rng = seeded_stream(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = len(pairs)
    w = rng.standard_normal((p, p))
    w = (w + w.T) / 2.0
    t = np.zeros((n, n, n, n))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            v = w[a, b]
            t[i, j, k, l] = v
            t[j, i, k, l] = -v
            t[i, j, l, k] = -v
            t[j, i, l, k] = v
    return t - curvature._cyclic_part(t)


class TestRandomCurvature:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bitwise_equal_to_pair_loop(self, n):
        for seed in (0, 1, 7, 12345, 2**63 + 5):
            assert np.array_equal(random_curvature(n, seed).components,
                                  pair_loop_random_curvature(n, seed))

    def test_deterministic(self):
        a = random_curvature(4, seed=1)
        b = random_curvature(4, seed=1)
        assert np.array_equal(a.components, b.components)

    def test_rejects_dim1(self):
        with pytest.raises(InvalidInputError):
            random_curvature(1, seed=0)

    @given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_symmetries_and_bianchi(self, seed, n):
        r = random_curvature(n, seed)
        assert symmetry_errors(r) <= 1e-12 * max(1.0, np.abs(r.components).max())


def pair_symmetric_draw(m, seed):
    """The sampler's draw before its projection: the stream of ``seed`` made
    antisymmetric in each index pair and symmetric under pair exchange."""
    n = 2 * m
    t = seeded_stream(seed).standard_normal((n, n, n, n))
    t = (t - np.einsum("jikl->ijkl", t)) / 2.0
    t = (t - np.einsum("ijlk->ijkl", t)) / 2.0
    return (t + np.einsum("klij->ijkl", t)) / 2.0


def alternating_projection_kahler(m, seed):
    """Reference: alternate the J-pair average and the removal of the cyclic
    part until both residuals drop below 1e-14, at most 500 rounds."""
    t = pair_symmetric_draw(m, seed)
    tol = 1e-14 * max(1.0, float(np.abs(t).max()))
    for _ in range(500):
        t = curvature._j_pair_average(t)
        t = t - curvature._cyclic_part(t)
        bianchi_res = float(np.abs(curvature._cyclic_part(t)).max())
        j_res = float(np.abs(t - curvature._j_pair_average(t)).max())
        if bianchi_res <= tol and j_res <= tol:
            break
    return t


class TestRandomKahlerCurvature:
    def test_deterministic(self):
        a = random_kahler_curvature(2, seed=4)
        b = random_kahler_curvature(2, seed=4)
        assert np.array_equal(a.components, b.components)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_j_invariance_and_symmetries(self, m):
        seed = m + 20
        r = random_kahler_curvature(m, seed)
        jm = standard_complex_structure(m)
        tol = 1e-14 * np.abs(pair_symmetric_draw(m, seed)).max()
        assert symmetry_errors(r) <= tol
        pulled = np.einsum("ck,dl,ijcd->ijkl", jm, jm, r.components)
        assert np.abs(r.components - pulled).max() <= tol
        again = curvature._kahler_part(r.components)
        assert np.abs(again - r.components).max() <= tol  # idempotent
        assert np.abs(r.components).max() > 1e-3  # generically nonzero

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_projection_identity(self, m):
        """S = P_J b P_J satisfies S^2 = (2/3) S on pair-symmetric tensors,
        which makes u - (3/2) P_J b u the exact projection."""
        def s_map(u):
            return curvature._j_pair_average(curvature._cyclic_part(u))

        for seed in range(3):
            u = curvature._j_pair_average(pair_symmetric_draw(m, seed))
            su = s_map(u)
            assert np.linalg.norm(s_map(su) - su * (2.0 / 3.0)) <= 1e-14 * np.linalg.norm(su)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_agrees_with_alternating_projections(self, m):
        for seed in range(5):
            reference = alternating_projection_kahler(m, seed)
            r = random_kahler_curvature(m, seed)
            assert np.abs(r.components - reference).max() <= 1e-12 * np.abs(reference).max()


def einsum_j_pair_average(t):
    """Reference: pulling back each index pair by the standard J as a full
    contraction."""
    jm = standard_complex_structure(t.shape[0] // 2)
    t12 = np.einsum("ai,bj,abkl->ijkl", jm, jm, t, optimize=True)
    t34 = np.einsum("ck,dl,ijcd->ijkl", jm, jm, t, optimize=True)
    tboth = np.einsum("ck,dl,abcd->abkl", jm, jm, t12, optimize=True)
    return (t + t12 + t34 + tboth) / 4.0


class TestJPairAverage:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bitwise_equal_to_einsum_form(self, m):
        for seed in range(50):
            t = seeded_stream(seed).standard_normal((2 * m,) * 4)
            assert np.array_equal(curvature._j_pair_average(t), einsum_j_pair_average(t))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_generator_unchanged_from_einsum_form(self, monkeypatch, m):
        fast = [random_kahler_curvature(m, seed).components for seed in range(5)]
        monkeypatch.setattr(curvature, "_j_pair_average", einsum_j_pair_average)
        for seed, comp in enumerate(fast):
            assert np.array_equal(comp, random_kahler_curvature(m, seed).components)


# SHA-256 of the seeded random tensors' component bytes: a change in a
# sampler's arithmetic shows here even at sizes where no sample classifies,
# so that no harness report would differ
SEEDED_DIGESTS = {
    ("kahler", 1, 0): "671a7c4843b72ccac721927f62c806197ad310545fd264fdb37fa963119ee99d",
    ("kahler", 1, 1): "54bddb106cdb634731e259e1225a4a441e6a4c629891dfb14789212d4a647c5c",
    ("kahler", 1, 146): "a45a95381e7bbb398f6965ea9725468eca088d99cdfbdea24fb58559ec6e7fa1",
    ("kahler", 2, 0): "ecb290598697bd82bff9c673ce9c8265c4be5e8c6f1057ab60084d11c6c569b1",
    ("kahler", 2, 1): "f07ecaf9466de3a5c588c64d7aa94560d69f5affea6993f2d210a0b0d0fd69a8",
    ("kahler", 2, 146): "9931f8df32c29c551dd4f8bd58b9196472f6ab1c9621325a2a240a0eba35719c",
    ("kahler", 3, 0): "22fdc878c82c0d51ac26e49984a9331f58d09a992771f50c51b5b9cce9a352b2",
    ("kahler", 3, 1): "a816967d27ef607b0411e855db89b8f46838193847a2ba18ee0ab12bf1f1d418",
    ("kahler", 3, 146): "6ed722e686e23fd85a2e80686e5047a4f1a40c67b4e06685757b8e52fb7a146d",
    ("real", 3, 0): "d6339dc7e7b52cb4b18a3317d7fbc0fde42010a56d553b621366232a873221d6",
    ("real", 3, 1): "b7413be1d65185a3acc586070a4af1796b77559385b75495e915a61093e976a5",
    ("real", 3, 146): "d7fd91914fe95be8a1247d56e77c96815fe71bee51e1d6bbb1d02ea1adf5aa29",
    ("real", 4, 0): "d0d25baebabe542b91d6d8572d90a553fb401e86962f5e004bd61116e950f60f",
    ("real", 4, 1): "35c35a7051e521aee752ce99b1fd70f31da97f22b617f9f17d2a0b5c0c6c313c",
    ("real", 4, 146): "5d09b2b98f1a1f1627d5bf43f9542a606179bfd24d8286e4bf79852817f9914c",
    ("real", 5, 0): "851f09221e2fa83d920b3ba62a501f5bd1b6c59956abf9215670c7a84be58498",
    ("real", 5, 1): "a5fa8029e046862c6e1b27ea18f515c44ff448a3b8f7da7205b79616194a2bac",
    ("real", 5, 146): "214d890575a830ad5030f15db21d4b55c32260a2f40d59afe84f92c8e565d745",
}


@pytest.mark.parametrize("kind,size,seed", sorted(SEEDED_DIGESTS))
def test_seeded_tensor_bytes_are_pinned(kind, size, seed):
    sample = random_kahler_curvature if kind == "kahler" else random_curvature
    digest = hashlib.sha256(sample(size, seed).components.tobytes()).hexdigest()
    assert digest == SEEDED_DIGESTS[kind, size, seed]


class TestValidation:
    def test_rejects_pair_asymmetry(self):
        comp = np.zeros((2, 2, 2, 2))
        comp[0, 1, 0, 1] = 1.0  # missing the antisymmetric partners
        with pytest.raises(InvalidInputError):
            CurvatureTensor(comp)

    def test_rejects_bianchi_violation(self):
        # a generic pair-symmetric tensor without the cyclic part removed
        rng = np.random.default_rng(2)
        t = rng.standard_normal((4, 4, 4, 4))
        t = (t - np.einsum("jikl->ijkl", t)) / 2.0
        t = (t - np.einsum("ijlk->ijkl", t)) / 2.0
        t = (t + np.einsum("klij->ijkl", t)) / 2.0
        with pytest.raises(InvalidInputError):
            CurvatureTensor(t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_components(self, bad):
        # every tolerance comparison is false on NaN, so only this check catches it
        comp = space_form(3, 1.0).components.copy()
        comp[0, 1, 0, 1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            CurvatureTensor(comp)

import dataclasses
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from secondkind.curvature import (
    MAX_DIM,
    flat_tensor,
    kahler_space_form,
    product,
    space_form,
)
from secondkind import cli, curvature, descriptors, numerics, operator2k, rigidity, sym2
from secondkind.errors import ConvergenceError, InvalidInputError
from secondkind.descriptors import a_const, b_const
from secondkind.rigidity import check_rigidity, verify_product_structure

from reference import NEGATED_VERDICT, f_lemma
from samples import random_curvatures, random_kahler_curvatures, random_tensor


def exact_g(clusters, alpha):
    """g(alpha) over (value, multiplicity) clusters in any order: the
    floor(alpha) smallest eigenvalues and frac(alpha) times the next one."""
    whole = math.floor(alpha)
    total, left = 0, whole
    for value, mult in sorted(clusters):
        taken = min(mult, left)
        total += taken * value
        left -= taken
        if taken < mult:  # this cluster holds the next eigenvalue
            return total + (alpha - whole) * value
    return total


def product_clusters(kind, n1, kappa1, n2, kappa2, kind2=None):
    """Clusters of the product of two model spaces of real dimensions n1, n2
    by the closed form, in the number type of the kappas."""
    first = descriptors.leaf_closed_form(kind, n1, kappa1)
    second = descriptors.leaf_closed_form(kind2 or kind, n2, kappa2)
    return descriptors.product_closed_form(first, second)


def exact_a(n1, n2):
    return 1 + n1 * n2 + Fraction(n1 * (n2 - 1) + n2 * (n1 - 1), n1 + n2)


def exact_b(m1, m2):
    return 4 * m1 * m2 + Fraction(3, 2) * (m1 * m1 + m2 * m2) + Fraction(m1 * m2, m1 + m2)


class TestConstants:
    def test_a_values(self):
        assert a_const(2, 2) == pytest.approx(6.0)
        assert a_const(3, 1) == pytest.approx(4.5)
        assert a_const(2, 3) == pytest.approx(8.4)

    def test_a_line_form(self):
        for n in range(2, 12):
            assert a_const(n - 1, 1) == pytest.approx(n + (n - 2) / n, abs=1e-12)

    def test_a_split_identity_exact(self):
        # k(n-k) + 2k(n-k)/n in exact rational arithmetic
        for n in range(2, 33):
            for k in range(1, n // 2 + 1):
                lhs = Fraction(1) + k * (n - k) + Fraction(k * (n - k - 1) + (n - k) * (k - 1), n)
                rhs = k * (n - k) + Fraction(2 * k * (n - k), n)
                assert lhs == rhs
                assert a_const(k, n - k) == pytest.approx(float(rhs), abs=1e-12)

    def test_b_values(self):
        assert b_const(1, 1) == pytest.approx(7.5)
        assert b_const(2, 2) == pytest.approx(29.0)
        assert b_const(2, 1) == pytest.approx(97.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("m1", [1, 2, 3])
    @pytest.mark.parametrize("m2", [1, 2, 3])
    def test_b_sits_three_halves_above_the_kahler_model_threshold(self, m1, m2):
        # measured in floats; the constant exceeds the computed threshold
        s = operator2k.spectrum(product(kahler_space_form(m1, 1.0),
                                        kahler_space_form(m2, 1.0)))
        assert b_const(m1, m2) - operator2k.nonneg_threshold(s) == pytest.approx(1.5, abs=1e-9)

    def test_float_constants_keep_their_formula_and_exact_ones_are_rational(self):
        # the float A is not always the correctly rounded A, so the float
        # view is pinned to its own arithmetic at every size pair
        for n1 in range(1, MAX_DIM):
            for n2 in range(1, MAX_DIM + 1 - n1):
                a = 1.0 + n1 * n2 + (n1 * (n2 - 1) + n2 * (n1 - 1)) / (n1 + n2)
                assert a_const(n1, n2).hex() == a.hex()
                assert a_const(n1, n2, Fraction(1)) == exact_a(n1, n2)
        for m1 in range(1, MAX_DIM // 2):
            for m2 in range(1, MAX_DIM // 2 + 1 - m1):
                b = 4.0 * m1 * m2 + 1.5 * (m1 * m1 + m2 * m2) + (m1 * m2) / (m1 + m2)
                assert b_const(m1, m2).hex() == b.hex()
                assert b_const(m1, m2, Fraction(1)) == exact_b(m1, m2)

    @staticmethod
    def assert_exact_threshold(clusters, constant):
        # g is convex in alpha, so g < 0 at 1 and just below the constant and
        # g = 0 at it make the constant exactly the least alpha with g >= 0
        assert exact_g(clusters, constant) == 0
        assert exact_g(clusters, constant - Fraction(1, 1000)) < 0
        assert exact_g(clusters, Fraction(1)) < 0

    def test_a_is_exactly_the_sphere_product_threshold(self):
        for n1 in range(2, 31):
            for n2 in range(2, 31):
                clusters = product_clusters("sphere", n1, Fraction(1), n2, Fraction(1))
                self.assert_exact_threshold(clusters, exact_a(n1, n2))

    def test_line_constant_is_exactly_the_threshold_of_s_times_r(self):
        for n in range(3, 33):
            constant = n + Fraction(n - 2, n)
            assert a_const(n - 1, 1, Fraction(1)) == constant
            clusters = product_clusters("sphere", n - 1, Fraction(1), 1, Fraction(0),
                                        kind2="euclidean")
            self.assert_exact_threshold(clusters, constant)

    def test_b_sits_exactly_three_halves_above_the_kahler_product_threshold(self):
        for m1 in range(1, 31):
            for m2 in range(1, 31):
                clusters = product_clusters("cp", 2 * m1, Fraction(1), 2 * m2, Fraction(1))
                b = exact_b(m1, m2)
                self.assert_exact_threshold(clusters, b - Fraction(3, 2))
                assert exact_g(clusters, b) > 0

    def test_reject_nonpositive_dims(self):
        with pytest.raises(InvalidInputError):
            a_const(0, 2)
        with pytest.raises(InvalidInputError):
            b_const(1, 0)


class TestFLemma:
    def test_integer_point(self):
        assert f_lemma([1, 2, 3], 2) == pytest.approx(3.0)

    def test_fractional_point_and_bound(self):
        value = f_lemma([1, 2, 3], 2.5)
        assert value == pytest.approx(4.5)
        assert value <= 2.5 * 2.0

    def test_constant_multiset_equality(self):
        values = [0.7] * 4
        for x in (1.0, 1.5, 2.0, 3.25, 4.0):
            assert f_lemma(values, x) == pytest.approx(x * 0.7, abs=1e-12)

    def test_unsorted_input_allowed(self):
        assert f_lemma([3, 1, 2], 2) == pytest.approx(3.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            f_lemma([1, 2], 0.5)
        with pytest.raises(InvalidInputError):
            f_lemma([1, 2], 2.5)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=50),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_bound(self, values, t):
        count = len(values)
        x = 1.0 + t * (count - 1)
        mean = sum(values) / count
        assert f_lemma(values, x) <= x * mean + 1e-9 * max(1.0, abs(mean) * x)

    @given(st.lists(st.floats(-20, 20), min_size=3, max_size=30, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_strict_below_mean_when_not_constant(self, values):
        assume(max(values) - min(values) > 1e-6)  # keep rounding away from the equality case
        count = len(values)
        mean = sum(values) / count
        for x in (1.0, count / 2.0, count - 1.0):
            assert f_lemma(values, x) < x * mean


class TestVerifyProductStructure:
    def test_line_model(self):
        report = verify_product_structure(space_form(3, 1.0), flat_tensor(1))
        assert report.verdict == "consistent"
        assert report.details["zeta_entry"] == pytest.approx(-0.5, abs=1e-10)
        assert report.details["spectrum_multiset"] == "consistent"

    def test_random_factors_only_xi_applicable(self):
        report = verify_product_structure(random_tensor(3, 5), random_tensor(2, 6))
        assert report.verdict == "consistent"
        assert report.details["xi_block"] == "consistent"
        assert report.details["einstein_blocks"] == "not-applicable"
        assert report.details["spectrum_multiset"] == "not-applicable"

    def test_kahler_pair_spectrum(self):
        r1 = kahler_space_form(2, 1.0)
        r2 = kahler_space_form(1, 1.0)
        report = verify_product_structure(r1, r2)
        assert report.verdict == "consistent"
        # trace-difference eigenvalue -(2 m1 (m2+1) k2 + 2 m2 (m1+1) k1)/(m1+m2)
        assert report.details["zeta_expected"] == pytest.approx(-14.0 / 3.0, abs=1e-12)

    def test_detects_planted_violation(self):
        # a deliberately wrong pairing: compare factors that do not match
        report = verify_product_structure(space_form(2, 1.0), space_form(2, 1.0))
        assert report.verdict == "consistent"
        # sanity: the report structure obeys the verdict invariant
        assert bool(report.counterexamples) == (report.verdict == "violated")

    def test_rejects_total_dimension_above_bound(self):
        half = MAX_DIM // 2 + 1
        with pytest.raises(InvalidInputError, match=f"total dimension {2 * half} exceeds"):
            verify_product_structure(flat_tensor(half), flat_tensor(half))

    @pytest.mark.parametrize("args,kwargs,message", [
        ((space_form(2, 1.0), space_form(2, 1.0)), {"tol": "x"},
         "tolerance must be a real number, got str"),
        ((5, space_form(2, 1.0)), {}, "product structure needs two curvature tensors"),
        ((space_form(2, 1.0), None), {}, "product structure needs two curvature tensors"),
    ], ids=["tol-str", "first-int", "second-none"])
    def test_rejects_an_input_that_is_not_a_tensor_or_a_number_in_one_line(self, args, kwargs,
                                                                            message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            verify_product_structure(*args, **kwargs)

    @pytest.mark.parametrize("r1,r2,assemblies", [
        (space_form(3, 1.0), space_form(2, 0.5), 4),
        (kahler_space_form(2, 1.0), kahler_space_form(1, 2.0), 4),
        (space_form(3, 1.0), flat_tensor(1), 3),
    ], ids=["two-curved", "two-kahler", "line"])
    def test_factor_spectra_come_from_their_blocks(self, r1, r2, assemblies, monkeypatch):
        # one assembly for the adapted matrix, one per factor block of
        # dimension at least 2, one for the product's spectrum; each factor
        # spectrum is solved from its block, and no spectrum is clustered
        counts = {"assemble": 0, "cluster": 0}
        real_assemble, real_cluster = operator2k.operator_matrix, numerics.cluster_spectrum

        def assemble(*args):
            counts["assemble"] += 1
            return real_assemble(*args)

        def cluster(values):
            counts["cluster"] += 1
            return real_cluster(values)

        for module in (operator2k, rigidity):
            monkeypatch.setattr(module, "operator_matrix", assemble)
        monkeypatch.setattr(numerics, "cluster_spectrum", cluster)
        report = verify_product_structure(r1, r2)
        assert report.details["spectrum_multiset"] == "consistent"
        assert counts == {"assemble": assemblies, "cluster": 0}


class TestCheckRigidity:
    def test_line_harness(self):
        report = check_rigidity("line", {"n": 4}, seed=0, samples=25)
        assert report.verdict == "consistent"
        assert report.details["model_check"] == "consistent"
        assert report.samples_run == 25

    def test_line_rejects_small_dim(self):
        with pytest.raises(InvalidInputError):
            check_rigidity("line", {"n": 3})

    def test_product_spheres_harness(self):
        report = check_rigidity("product-spheres", {"n1": 2, "n2": 2}, seed=1, samples=15)
        assert report.verdict == "consistent"
        assert report.details["model_threshold"] == pytest.approx(6.0, abs=1e-9)
        assert report.details["flatness_probe_verdict"] == "neither"

    def test_product_kahler_harness_records_flatness_finding(self):
        report = check_rigidity("product-kahler", {"m1": 1, "m2": 1}, seed=2, samples=10)
        assert report.verdict == "consistent"
        assert report.details["model_check"] == "consistent"
        # the non-flat model stays classified strictly below the constant
        assert report.details["model_threshold"] == pytest.approx(6.0, abs=1e-9)
        assert any(f["verdict"] == "nonnegative" for f in report.findings)

    def test_iff_spheres_no_mismatch(self):
        report = check_rigidity(
            "iff-spheres", {"n1": 2, "n2": 3, "grid": [0.5, 1.0, 2.0]}
        )
        assert report.verdict == "consistent"
        assert report.findings == []
        assert report.samples_run == 18

    def test_iff_kahler_records_findings(self):
        report = check_rigidity(
            "iff-kahler", {"m1": 1, "m2": 1, "grid": [0.5, 1.0, 2.0]}
        )
        assert report.verdict == "consistent"
        assert len(report.findings) > 0
        for finding in report.findings:
            assert finding["equal_kappa"] is False

    @staticmethod
    def count_solved(monkeypatch):
        """List that gets the number of matrices solved, one for a matrix and
        the stack length for a stack, per ``eigensolve`` call through any
        module that binds it."""
        real = numerics.eigensolve
        solved = []

        def counting(m, *args, **kwargs):
            solved.append(int(np.prod(np.shape(m)[:-2])))
            return real(m, *args, **kwargs)

        for module in (numerics, operator2k, rigidity):
            monkeypatch.setattr(module, "eigensolve", counting)
        return solved

    @pytest.mark.parametrize("case", ["line", "product-spheres", "product-kahler"])
    def test_model_solved_once(self, case, monkeypatch):
        # the model's verdicts, its nonpositive dual and the flatness probe
        # all come from one spectrum, solved once per process
        rigidity._clear_model_caches()
        solved = self.count_solved(monkeypatch)
        report = check_rigidity(case, samples=0)
        assert report.details["model_check"] == "consistent"
        assert solved == [1]
        # a warm request solves no model, and its details at its own tol are
        # those of a cold one: the verdicts are cached per tol
        warm = check_rigidity(case, seed=5, samples=0, tol=50.0)
        assert solved == [1]
        rigidity._clear_model_caches()
        cold = check_rigidity(case, seed=5, samples=0, tol=50.0)
        assert solved == [1, 1]
        assert warm.details == cold.details
        assert warm.to_dict() == cold.to_dict()
        # tol 50 turns the probe of the product models and their model check
        assert warm.details != report.details or case == "line"
        family, _ = rigidity._HARNESSES[case]
        s = rigidity._model_spectrum(family.factors, family.dims(cold.parameters))
        with pytest.raises(ValueError):
            s[0] = 0.0

    @pytest.mark.parametrize("case,params,tol,records", [
        ("product-spheres", {"n1": 3, "n2": 3}, 50.0, "counterexamples"),
        ("product-kahler", {"m1": 1, "m2": 1}, 1e-9, "findings")])
    def test_a_changed_report_leaves_the_next_unchanged(self, case, params, tol, records):
        # at tol 50 the spheres' model check is violated, and the Kahler
        # probe at m = 1 is a finding; both come from the cached outcome
        first = check_rigidity(case, params, samples=0, tol=tol)
        expected = check_rigidity(case, params, samples=0, tol=tol).to_dict()
        assert getattr(first, records)
        first.details["model_check"] = "changed"
        first.details["model_threshold"] = -1.0
        getattr(first, records)[0]["alpha"] = -1.0
        getattr(first, records).append({"check": "added"})
        again = check_rigidity(case, params, samples=0, tol=tol)
        assert again.to_dict() == expected
        rigidity._clear_model_caches()
        assert check_rigidity(case, params, samples=0, tol=tol).to_dict() == expected

    @pytest.mark.parametrize("grid", [
        [float("nan"), 1.0], [float("inf"), 1.0], [1.0, float("-inf")], [0.0], [-0.5], [],
    ], ids=["nan", "inf", "minus-inf", "zero", "negative", "empty"])
    @pytest.mark.parametrize("case", ["iff-spheres", "iff-kahler"])
    def test_rejects_kappa_grid_not_positive_and_finite(self, case, grid):
        with pytest.raises(InvalidInputError,
                           match="kappa grid values must be positive and finite"):
            check_rigidity(case, {"grid": grid})

    @pytest.mark.parametrize("case", ["iff-spheres", "iff-kahler"])
    def test_rejects_kappa_grid_above_sample_bound_before_solving(self, case, monkeypatch):
        # 224 values give 2 * 224^2 = 100352 samples, over MAX_SAMPLES
        def boom(*args, **kwargs):
            raise AssertionError("solved before checking the bound")

        monkeypatch.setattr(rigidity, "spectrum", boom)
        monkeypatch.setattr(rigidity, "eigensolve", boom)
        grid = [1.0 + k / 1000 for k in range(224)]
        with pytest.raises(InvalidInputError,
                           match="^100352 sweep samples exceed the limit 100000$"):
            check_rigidity(case, {"grid": grid})

    @pytest.mark.parametrize("case", ["iff-spheres", "iff-kahler"])
    def test_accepts_kappa_grid_at_sample_bound(self, case, monkeypatch):
        monkeypatch.setattr(rigidity, "_sweep", lambda *args: None)
        grid = [1.0 + k / 1000 for k in range(223)]
        report = check_rigidity(case, {"grid": grid})
        assert report.samples_run == 2 * 223 ** 2 <= operator2k.MAX_SAMPLES

    @pytest.mark.parametrize("case", ["iff-spheres", "iff-kahler"])
    def test_sweep_clusters_each_grid_point_once(self, case, monkeypatch):
        # the verdicts read the eigenvalues alone, and the negative
        # family's verdict is mapped from the positive one, so no spectrum
        # is clustered
        real = numerics.cluster_spectrum
        calls = []

        def counting(values):
            calls.append(len(values))
            return real(values)

        monkeypatch.setattr(numerics, "cluster_spectrum", counting)
        check_rigidity(case, {"grid": [0.5, 1.0, 2.0]})
        assert calls == []

    @pytest.mark.parametrize("factor,d1,d2,alpha", [
        (space_form, 2, 3, a_const(2, 3)),
        (lambda m, k: kahler_space_form(m, k), 1, 2, b_const(1, 2)),
    ], ids=["spheres", "kahler"])
    def test_negated_spectrum_verdict_matches_negative_model(self, factor, d1, d2, alpha):
        # the identity the sweep rests on: H(k1) x H(k2) classifies as the
        # mapped verdict of S(k1) x S(k2), without a second solve
        for k1 in (0.5, 1.0, 2.0):
            for k2 in (0.5, 1.0, 2.0):
                s = operator2k.spectrum(product(factor(d1, k1), factor(d2, k2)))
                negated = NEGATED_VERDICT[operator2k.verdict(s, alpha)]
                assert negated == operator2k.classify(product(factor(d1, -k1), factor(d2, -k2)),
                                                      alpha)

    def test_violated_model_still_reports_its_probe(self):
        # so loose a tolerance classifies the model as "both": the model
        # check fails on its verdicts, and the probe is still reported
        report = check_rigidity("product-spheres", samples=0, tol=50.0)
        assert report.verdict == "violated"
        assert report.details["flatness_probe_verdict"] == "both"
        assert [c["check"] for c in report.counterexamples] == ["model"]

    def test_rejects_unknown_case(self):
        with pytest.raises(InvalidInputError):
            check_rigidity("nonsense", {})

    @pytest.mark.parametrize("args,kwargs,message", [
        (("line",), {"tol": "x"}, "tolerance must be a real number, got str"),
        (("line",), {"tol": None}, "tolerance must be a real number, got NoneType"),
        (("line",), {"tol": 10 ** 400}, "tolerance must be positive and finite, got inf"),
        (("iff-spheres", {"grid": ["x"]}), {}, "kappa grid value must be a real number, got str"),
        (("iff-spheres", {"grid": 5}), {}, "kappa grid must be a list, got int"),
        (("iff-spheres", {"grid": "12"}), {}, "kappa grid must be a list, got str"),
        (("iff-spheres", {"grid": b"12"}), {}, "kappa grid must be a list, got bytes"),
        (("iff-spheres", {"grid": {2.0: "x", 1.0: "y"}}), {},
         "kappa grid must be a list, got dict"),
        (("iff-spheres", {"grid": [10 ** 400]}), {},
         "kappa grid values must be positive and finite"),
        (("line", 5), {}, "line parameters must be a mapping, got int"),
        (("line", ["n"]), {}, "line parameters must be a mapping, got list"),
        ((["line"],), {}, re.escape("unknown harness case ['line']; expected one of ")),
        (("line", {1: 2, "a": 3}), {}, re.escape("unexpected line parameters: [1, 'a']")),
    ], ids=["tol-str", "tol-none", "tol-huge-int", "grid-str", "grid-int", "grid-string",
            "grid-bytes", "grid-mapping", "grid-huge-int",
            "params-int", "params-list", "case-list", "params-mixed-keys"])
    def test_rejects_a_malformed_input_in_one_line(self, args, kwargs, message):
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            check_rigidity(*args, **kwargs)

    def test_reads_the_tolerance_as_a_float(self):
        report = check_rigidity("line", samples=0, tol=np.float64(1e-9))
        assert type(report.parameters["tol"]) is float
        assert report.to_dict() == check_rigidity("line", samples=0, tol=1e-9).to_dict()

    def test_rejects_unknown_params(self):
        with pytest.raises(InvalidInputError):
            check_rigidity("line", {"n": 4, "bogus": 1})

    @pytest.mark.parametrize("case,params,name,value", [
        ("line", {"n": 5.9}, "n", 5.9),
        ("product-spheres", {"n1": 2.5, "n2": 3}, "n1", 2.5),
        ("product-spheres", {"n1": 2, "n2": True}, "n2", True),
        ("product-kahler", {"m1": "2"}, "m1", "2"),
        ("iff-kahler", {"m2": np.int64(2)}, "m2", np.int64(2)),
        ("line", {"seed": 1.5}, "seed", 1.5),
        ("product-spheres", {"seed": "3"}, "seed", "3"),
        ("product-kahler", {"samples": True}, "samples", True),
        ("line", {"samples": 2.5}, "samples", 2.5),
        ("iff-spheres", {"samples": 2.0}, "samples", 2.0),
    ], ids=["n-float", "n1-float", "n2-bool", "m1-str", "m2-numpy", "seed-float", "seed-str",
            "samples-bool", "samples-float", "sweep-samples-float"])
    def test_rejects_a_size_seed_or_sample_count_that_is_not_an_int(self, case, params, name,
                                                                    value, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("ran before checking the integers")

        monkeypatch.setattr(rigidity, "standard_normal_draws", boom)
        sizes = {k: v for k, v in params.items() if k not in ("seed", "samples")}
        run = {k: v for k, v in params.items() if k in ("seed", "samples")}
        with pytest.raises(InvalidInputError,
                           match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            check_rigidity(case, sizes, **run)

    @pytest.mark.parametrize("case", list(rigidity.HARNESS_CASES))
    def test_rejects_samples_above_bound_before_sampling(self, case, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("ran before checking the bound")

        monkeypatch.setattr(rigidity, "spectrum", boom)
        monkeypatch.setattr(rigidity, "eigensolve", boom)
        with pytest.raises(InvalidInputError,
                           match=f"^{operator2k.MAX_SAMPLES + 1} samples exceed the limit "
                                 f"{operator2k.MAX_SAMPLES}$"):
            check_rigidity(case, samples=operator2k.MAX_SAMPLES + 1)

    @pytest.mark.parametrize("case,params,total", [
        ("line", {"n": MAX_DIM + 1}, MAX_DIM + 1),
        ("product-spheres", {"n1": MAX_DIM, "n2": 2}, MAX_DIM + 2),
        ("product-kahler", {"m1": 1, "m2": MAX_DIM // 2}, MAX_DIM + 2),
        ("iff-spheres", {"n1": 10**7, "n2": 2}, 10**7 + 2),
        ("iff-kahler", {"m1": MAX_DIM // 4, "m2": MAX_DIM // 4 + 1}, MAX_DIM + 2),
    ])
    def test_rejects_total_dimension_above_bound(self, case, params, total):
        with pytest.raises(InvalidInputError,
                           match=f"total dimension {total} exceeds the limit {MAX_DIM}"):
            check_rigidity(case, params, samples=1)

    def test_report_dict_shares_the_fields_in_order(self):
        report = check_rigidity("iff-kahler", {"grid": [0.5, 1.0]})
        obj = report.to_dict()
        assert obj == dataclasses.asdict(report)
        assert list(obj) == [f.name for f in dataclasses.fields(report)]
        assert obj["findings"] is report.findings and obj["details"] is report.details

    def test_report_serializes(self):
        report = check_rigidity("iff-spheres", {"n1": 2, "n2": 2, "grid": [1.0]})
        obj = report.to_dict()
        assert obj["harness"] == "iff-spheres"
        assert obj["verdict"] == "consistent"


class TestSampleBlocks:
    """The sampled harnesses and the iff sweeps classify in stacked blocks
    of at most ``numerics.MAX_BLOCK`` samples; a report must not depend on the
    blocks."""

    @pytest.mark.parametrize("argv", [
        ["line", "--n", "5", "--samples", "130", "--tol", "50"],
        ["product-spheres", "--n1", "2", "--n2", "3", "--samples", "70", "--tol", "50"],
        ["product-kahler", "--m1", "1", "--m2", "1", "--samples", "70", "--tol", "50"],
        ["iff-spheres", "--kappa-grid", "0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25"],
        ["iff-kahler", "--kappa-grid", "0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25"],
    ], ids=["line", "spheres", "kahler", "iff-spheres", "iff-kahler"])
    def test_report_does_not_depend_on_block_size(self, argv, monkeypatch, capsys):
        outputs = []
        for block in (numerics.MAX_BLOCK, 1, 5):
            monkeypatch.setattr(numerics, "MAX_BLOCK", block)
            assert cli.run(["verify", *argv]) in (0, 1)
            out = json.loads(capsys.readouterr().out)
            out.pop("timing", None)
            outputs.append(out)
        assert outputs[1] == outputs[0] == outputs[2]
        # the detectors ran: tol 50 classifies the samples; the sweeps take
        # no blocks, so their rows pin that the sweep ignores the block size
        assert outputs[0]["counterexamples"] or outputs[0]["findings"] or argv[0] == "iff-spheres"

    def test_block_rule(self):
        budget = rigidity._TENSOR_BUDGET
        sizes = {n: len(numerics.blocks(0, 1000, n ** 4, budget)[0])
                 for n in (4, 8, 9, 12, 19, 20, 32)}
        assert sizes == {4: 64, 8: 64, 9: 39, 12: 12, 19: 2, 20: 1, 32: 1}
        assert [list(b) for b in numerics.blocks(0, 130, 5 ** 4, budget)] == [
            list(range(0, 64)), list(range(64, 128)), [128, 129]]
        assert numerics.blocks(0, 0, 5 ** 4, budget) == []

    def test_line_at_n32_runs_one_sample_per_block(self, monkeypatch, capsys):
        shapes, assembled = [], []
        real, classify = numerics.eigensolve, rigidity._block_verdicts

        def recording(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return real(m, *args, **kwargs)

        def assembling(mats, *args):
            assembled.append(mats.shape)
            return classify(mats, *args)

        for module in (operator2k, rigidity):
            monkeypatch.setattr(module, "eigensolve", recording)
        monkeypatch.setattr(rigidity, "_block_verdicts", assembling)
        rigidity._clear_model_caches()
        assert cli.run(["verify", "line", "--n", "32", "--samples", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["samples_run"] == 3
        # three blocks of one sample each, assembled on the 496-wide
        # bordered block (527 less the 31 mixed rows); their diagonals
        # decide them, so the model at full width is the one solve
        assert assembled == [(1, 496, 496)] * 3
        assert shapes == [(527, 527)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("case,argv,factor,seed", [
        ("line", ["--n", "5", "--samples", "130"], (4, False), 70),
        ("product-kahler", ["--m1", "1", "--m2", "1", "--samples", "130"], (1, True), 2 * 100 + 1),
    ], ids=["line", "kahler"])
    def test_corrupt_sample_in_a_later_block_ends_as_its_tensor_alone(
            self, case, argv, factor, seed, bad, monkeypatch, capsys):
        # one draw of a later block is corrupted; the run ends with the one
        # line that building that tensor alone gives, and no non-finite
        # matrix reaches LAPACK
        real_fill = curvature.fill_standard_normal

        def corrupting(seeds, out):
            real_fill(seeds, out)
            for draw, s in zip(out, seeds):
                if s == seed:
                    draw.flat[0] = bad
            return out

        real_eigvalsh = np.linalg.eigvalsh

        def finite_only(a):
            assert np.isfinite(a).all(), "a non-finite matrix reached LAPACK"
            return real_eigvalsh(a)

        monkeypatch.setattr(curvature, "fill_standard_normal", corrupting)
        monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
        dim, kahler = factor
        build = random_kahler_curvatures if kahler else random_curvatures
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises((InvalidInputError, FloatingPointError)) as info:
                build(dim, [seed])
        expected = (2, f"error: {info.value}\n") if info.type is InvalidInputError \
            else (3, f"numeric failure: {info.value}\n")
        code = cli.run(["verify", case, *argv])
        captured = capsys.readouterr()
        assert (code, captured.err) == expected
        assert captured.out == ""
        if bad != bad:  # NaN ends in the tensor check
            assert captured.err == "error: components must be finite\n"


def _factor_stack(kahler, d, seeds):
    """Seeded stack of one factor: real of dimension d, the flat line R for
    d = 1, or Kahler of complex dimension d."""
    if kahler:
        return random_kahler_curvatures(d, seeds)
    if d == 1:
        return np.zeros((len(seeds), 1, 1, 1, 1))
    return random_curvatures(d, seeds)


def bordered_spectra(mats, n1, n2):
    """Every bordered block of ``mats`` solved by LAPACK, with the n1 n2
    exact zeros of the mixed directions: the route that the diagonal
    certificate of ``rigidity._block_verdicts`` short-cuts."""
    return rigidity._with_mixed_zeros(numerics.eigensolve(mats), n1, n2)


def bordered_basis(n1, n2):
    """The tensors ``(W, n1 + n2, n1 + n2)`` of the product-adapted basis
    without its n1 n2 mixed (xi) directions, ``[N1 | N2 | 1]``: a product's
    operator vanishes on those."""
    mixed = sym2.sym2_dim(n1) + sym2.sym2_dim(n2)
    return np.delete(sym2.product_adapted_basis(n1, n2).tensors,
                     range(mixed, mixed + n1 * n2), axis=0)


def scanned_directions(n1, n2, j):
    """The directions of ``bordered_basis(n1, n2)`` whose restrictions to
    the index block of factor j are nonzero, found by a scan: their flat
    entries of the W x W block and those restrictions. The reference that
    ``rigidity._factor_directions`` reads by position."""
    basis = bordered_basis(n1, n2)
    block = slice(n1 * j, n1 * j + (n1, n2)[j])
    tensors = basis[:, block, block]
    met = np.flatnonzero(tensors.any(axis=(1, 2)))
    return (met[:, None] * len(basis) + met[None, :]).ravel(), tensors[met]


def block_matrices(parts):
    """The bordered blocks of a block of products of two factors, one per
    entry of the factors' component stacks ``parts``, by the product
    tensor: one block fill and one stacked assembly over
    ``bordered_basis``. The reference route that
    ``rigidity._bordered_matrices`` replaced."""
    n1, n2 = (p.shape[-1] for p in parts)
    return operator2k.operator_matrices(curvature.product_components(parts),
                                        bordered_basis(n1, n2))


_REAL_PAIRS = [(n1, n2) for n1 in range(1, 8) for n2 in range(1, 8)
               if n1 + n2 <= 8 and max(n1, n2) >= 2]
_KAHLER_PAIRS = [(m1, m2) for m1 in range(1, 4) for m2 in range(1, 4) if m1 + m2 <= 4]


class TestBorderedBlock:
    """A block of products is solved on the product-adapted basis without
    its mixed (xi) directions; its rows, with the n1 n2 exact zeros, are the
    spectra of the full standard-basis operator. So are those of the
    harnesses' route from the factors' draws, which fills no product
    tensor."""

    # worst |bordered - full| over max |lambda| of a row; the rounding of two
    # LAPACK solves, at most 3.2e-15 over these stacks
    REL_BOUND = 1e-13

    @pytest.mark.parametrize("kahler,d1,d2", [(False, *p) for p in _REAL_PAIRS]
                             + [(True, *p) for p in _KAHLER_PAIRS])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_bordered_route_equals_the_full_route(self, kahler, d1, d2, scale):
        kind = _kind(kahler)
        seeds = [1000 * d1 + 10 * d2 + i for i in range(6)]
        factor_seeds = [seeds, [s + 500 for s in seeds]]
        parts = [_factor_stack(kahler, d1, seeds),
                 scale * _factor_stack(kahler, d2, factor_seeds[1])]
        n1, n2 = (p.shape[-1] for p in parts)
        n = n1 + n2
        full = numerics.eigensolve(operator2k.operator_matrices(
            curvature.product_components(parts), sym2.standard_basis(n).tensors))
        peak = np.abs(full).max(axis=-1, keepdims=True)
        factors = np.sort(np.concatenate(
            [numerics.eigensolve(operator2k.operator_matrices(p, sym2.standard_basis(d).tensors))
             for p, d in zip(parts, (n1, n2)) if d >= 2], axis=-1))
        # the tensor route in either factor order, and the harnesses' route
        # from the same draws, whose flat line R comes second
        routes = [block_matrices(parts)]
        if kahler or d1 >= 2:
            curved = [d for d in (d1, d2) if kahler or d >= 2]
            draws = [(scale if j else 1.0)
                     * curvature.standard_normal_draws(factor_seeds[j], kind.shape(d))
                     for j, d in enumerate(curved)]
            routes.append(rigidity._bordered_matrices(kind, curved, draws, n1, n2, maps=None))
        for mats in routes:
            bordered = bordered_spectra(mats, n1, n2)
            assert bordered.shape == full.shape == (6, sym2.sym2_dim(n))
            assert (np.diff(bordered, axis=-1) >= 0.0).all()
            assert (np.abs(bordered - full) <= self.REL_BOUND * peak).all()
            constant = b_const(d1, d2) if kahler else a_const(d1, d2)
            for alpha in (1.5, constant, full.shape[-1] / 2):
                for tol in (1e-9, 50.0):
                    assert (operator2k.verdict(bordered, alpha, tol)
                            == rigidity._block_verdicts(mats, n1, n2, alpha, tol)
                            == operator2k.verdict(full, alpha, tol))
            # Cauchy: the factor blocks, the bordered block's leading
            # principal submatrix, interlace the bordered block's eigenvalues
            block = numerics.eigensolve(mats)
            slack = self.REL_BOUND * peak
            assert (block[:, :-1] <= factors + slack).all()
            assert (factors <= block[:, 1:] + slack).all()

    @pytest.mark.parametrize("n1,n2,j", [
        (n1, n2, j) for n1, n2 in [(n1, n2) for n1 in range(1, 12) for n2 in range(1, 13 - n1)]
        + [(31, 1), (16, 16)] for j, n in enumerate((n1, n2)) if n >= 2])
    def test_factor_directions_are_the_scan_of_the_bordered_basis(self, n1, n2, j):
        # by position, the factor's standard block and zeta, bit for bit the
        # directions whose restrictions to the factor's index block are nonzero
        columns, restricted = rigidity._factor_directions(n1, n2, j)
        scanned_columns, scanned = scanned_directions(n1, n2, j)
        assert columns.dtype == scanned_columns.dtype
        assert columns.tobytes() == scanned_columns.tobytes()
        assert restricted.shape == scanned.shape == (len(scanned),) + ((n1, n2)[j],) * 2
        assert restricted.tobytes() == scanned.tobytes()
        assert len(scanned) == sym2.sym2_dim((n1, n2)[j]) + 1
        assert not columns.flags.writeable and not restricted.flags.writeable


def _kind(kahler):
    return rigidity._COMPLEX if kahler else rigidity._REAL


def _mapped(kahler, d1, d2):
    """Whether every curved factor's map of a (d1, d2) product fits the
    budget; a real factor of dimension 1 is the flat line R."""
    kind = _kind(kahler)
    n1, n2 = kind.real(d1), kind.real(d2)
    width = len(bordered_basis(n1, n2))
    return all(math.prod(kind.shape(d)) * width ** 2 <= rigidity._TENSOR_BUDGET
               for d in (d1, d2) if kahler or d >= 2)


def _map_built_alone(kind, dim, n1, n2, j):
    """The map of factor position j built on its own: its unit draws in the
    same blocks, through the same image, check and restricted assembly."""
    shape = kind.shape(dim)
    size = math.prod(shape)
    columns, restricted = scanned_directions(n1, n2, j)
    mapped = np.empty((size, len(columns)))
    for rows in numerics.blocks(0, size, kind.real(dim) ** 4, rigidity._MAP_BUDGET):
        units = np.eye(len(rows), size, rows.start).reshape((len(rows),) + shape)
        images = kind.image(dim, units)
        curvature.check_identities(images)
        mapped[rows.start:rows.stop] = operator2k.operator_matrices(
            images, restricted).reshape(len(rows), -1)
    return columns, mapped


class TestFactorMaps:
    """Where a factor's map fits the budget, the sampled harnesses take each
    factor's bordered part straight from its standard normal draws through
    a cached linear map, checked once on the images of the unit draws."""

    @pytest.fixture(autouse=True)
    def fresh_maps(self):
        rigidity._factor_maps.cache_clear()
        yield
        rigidity._factor_maps.cache_clear()

    @pytest.mark.parametrize("kahler,d1,d2",
                             [(False, *p) for p in _REAL_PAIRS if _mapped(False, *p)]
                             + [(True, *p) for p in _KAHLER_PAIRS if _mapped(True, *p)])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_mapped_route_equals_the_block_route(self, kahler, d1, d2, scale):
        kind = _kind(kahler)
        seeds = [1000 * d1 + 10 * d2 + i for i in range(6)]
        factor_seeds = [seeds, [s + 500 for s in seeds]]
        parts = [_factor_stack(kahler, d1, seeds),
                 scale * _factor_stack(kahler, d2, factor_seeds[1])]
        n1, n2 = (p.shape[-1] for p in parts)
        curved = [(j, d) for j, d in enumerate((d1, d2)) if kahler or d >= 2]
        # the harnesses put the flat line R second, so an R-first product is
        # mapped as its mirror, whose spectra and verdicts are its own
        sizes = (n1, n2) if curved[0][0] == 0 else (n2, n1)
        dims = tuple(d for _, d in curved)
        draws = [(scale if j else 1.0)
                 * curvature.standard_normal_draws(factor_seeds[j], kind.shape(d))
                 for j, d in curved]
        mapped_mats = rigidity._bordered_matrices(kind, dims, draws, *sizes,
                                                  rigidity._factor_maps(kind, dims, *sizes))
        block_mats = block_matrices(parts)
        mapped = bordered_spectra(mapped_mats, n1, n2)
        block = bordered_spectra(block_mats, n1, n2)
        assert mapped.shape == block.shape == (6, sym2.sym2_dim(n1 + n2))
        assert (np.diff(mapped, axis=-1) >= 0.0).all()
        peak = np.abs(block).max(axis=-1, keepdims=True)
        assert (np.abs(mapped - block) <= TestBorderedBlock.REL_BOUND * peak).all()
        constant = b_const(d1, d2) if kahler else a_const(d1, d2)
        for alpha in (1.5, constant, block.shape[-1] / 2):
            for tol in (1e-9, 50.0):
                assert (operator2k.verdict(mapped, alpha, tol)
                        == rigidity._block_verdicts(mapped_mats, *sizes, alpha, tol)
                        == rigidity._block_verdicts(block_mats, n1, n2, alpha, tol)
                        == operator2k.verdict(block, alpha, tol))

    @pytest.mark.parametrize("kahler,dim,n1,n2,j", [
        (True, 2, 4, 4, 1), (True, 1, 2, 4, 0), (False, 5, 5, 1, 0), (False, 3, 2, 3, 1)])
    def test_map_is_the_full_assembly_on_the_factors_directions(self, kahler, dim, n1, n2, j):
        kind = _kind(kahler)
        dims = tuple(n // 2 if kahler else n for n in (n1, n2) if kahler or n >= 2)
        assert dims[j] == dim
        columns, mapped = rigidity._factor_maps(kind, dims, n1, n2)[j]
        assert rigidity._factor_maps(kind, dims, n1, n2)[j][1] is mapped
        assert not columns.flags.writeable and not mapped.flags.writeable
        # the factor's standard directions and zeta, and no other
        count = (sym2.sym2_dim(n2) if j else sym2.sym2_dim(n1)) + 1
        width = len(bordered_basis(n1, n2))
        rows, cols = np.divmod(columns, width)
        met = set(range(sym2.sym2_dim(n1), width - 1) if j else range(sym2.sym2_dim(n1)))
        assert set(rows) == set(cols) == met | {width - 1}
        size = math.prod(kind.shape(dim))
        assert mapped.shape == (size, count ** 2)
        # the unit draws' images through the block fill and the bordered
        # assembly: zero off those entries, the map on them
        images = kind.image(dim, np.eye(size).reshape((size,) + kind.shape(dim)))
        flat = np.zeros((size,) + (n1 if j else n2,) * 4)
        full = operator2k.operator_matrices(curvature.product_components(
            [flat, images] if j else [images, flat]), bordered_basis(n1, n2))
        full = full.reshape(size, width * width)
        assert not np.delete(full, columns, axis=1).any()
        assert np.allclose(full[:, columns], mapped, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("kahler,dim", [(False, 2), (False, 3), (False, 5), (True, 1),
                                            (True, 2)])
    def test_equal_factors_share_one_pass_bitwise_the_maps_built_alone(self, kahler, dim):
        kind = _kind(kahler)
        n = kind.real(dim)
        shared = rigidity._factor_maps(kind, (dim, dim), n, n)
        assert rigidity._factor_maps(kind, (dim, dim), n, n) is shared
        assert len(shared) == 2
        for j, (columns, mapped) in enumerate(shared):
            assert not columns.flags.writeable and not mapped.flags.writeable
            alone = _map_built_alone(kind, dim, n, n, j)
            assert np.array_equal(columns, alone[0])
            assert mapped.tobytes() == alone[1].tobytes()

    @pytest.mark.parametrize("argv,kahler,draws", [
        (["product-kahler", "--m1", "2", "--m2", "2"], True, [256]),
        (["product-spheres", "--n1", "3", "--n2", "3"], False, [9]),
        (["product-kahler", "--m1", "2", "--m2", "1"], True, [256, 16]),
        (["product-spheres", "--n1", "2", "--n2", "3"], False, [1, 9]),
    ], ids=["kahler22", "spheres33", "kahler21", "spheres23"])
    def test_a_cold_run_images_the_unit_draws_once_per_factor_size(self, argv, kahler, draws,
                                                                  monkeypatch, capsys):
        name = "kahler_image" if kahler else "real_image"
        real = getattr(rigidity, name)
        imaged = []

        def counting(*args):
            images = real(*args)
            imaged.append(len(images))
            return images

        monkeypatch.setattr(rigidity, name, counting)
        assert cli.run(["verify", *argv, "--samples", "3"]) == 0
        capsys.readouterr()
        assert sum(imaged) == sum(draws)
        # one cache entry holds the maps of every factor of the size
        assert rigidity._factor_maps.cache_info().currsize == 1
        assert cli.run(["verify", *argv, "--samples", "3", "--seed", "1"]) == 0
        capsys.readouterr()
        assert sum(imaged) == sum(draws)

    def test_a_run_without_samples_builds_no_map(self, monkeypatch):
        real = rigidity.kahler_image
        imaged = []

        def counting(*args):
            images = real(*args)
            imaged.append(len(images))
            return images

        monkeypatch.setattr(rigidity, "kahler_image", counting)
        report = check_rigidity("product-kahler", {"m1": 2, "m2": 2}, samples=0)
        assert report.details["model_check"] == "consistent"
        assert imaged == []
        assert rigidity._factor_maps.cache_info().currsize == 0
        # the first block of a sampled run builds them
        check_rigidity("product-kahler", {"m1": 2, "m2": 2}, samples=1)
        assert sum(imaged) == 256
        assert rigidity._factor_maps.cache_info().currsize == 1

    @pytest.mark.parametrize("argv,mapped", [
        (["line", "--n", "7"], True),
        (["product-kahler", "--m1", "2", "--m2", "2"], True),
        (["product-spheres", "--n1", "5", "--n2", "5"], True),
        (["product-spheres", "--n1", "4", "--n2", "6"], True),
        (["line", "--n", "8"], False),
        (["product-kahler", "--m1", "2", "--m2", "3"], False),
        (["product-spheres", "--n1", "5", "--n2", "6"], False),
    ], ids=["line7", "kahler22", "spheres55", "spheres46", "line8", "kahler23", "spheres56"])
    def test_maps_only_within_the_budget(self, argv, mapped, monkeypatch, capsys):
        routes = []
        real = rigidity._bordered_matrices

        def recording(kind, dims, draws, n1, n2, maps=None):
            routes.append(maps is not None)
            return real(kind, dims, draws, n1, n2, maps)

        monkeypatch.setattr(rigidity, "_bordered_matrices", recording)
        assert cli.run(["verify", *argv, "--samples", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["samples_run"] == 3
        assert routes == [mapped]

    @pytest.mark.parametrize("kahler,argv,dims", [
        (False, ["line", "--n", "5"], (4,)),
        (True, ["product-kahler", "--m1", "2", "--m2", "1"], (2, 1)),
    ], ids=["real", "kahler"])
    def test_identity_check_of_the_unit_images_bites(self, kahler, argv, dims, monkeypatch,
                                                     capsys):
        # w (x) w with w = e0^e1 + e2^e3 holds every symmetry but Bianchi
        form = np.zeros((4, 4))
        form[0, 1] = form[2, 3] = 1.0
        form -= form.T
        name = "kahler_image" if kahler else "real_image"
        real = getattr(rigidity, name)

        def breaking(*args):
            images = real(*args)
            if images.shape[-1] == 4:
                images[0] += np.multiply.outer(form, form)
            return images

        monkeypatch.setattr(rigidity, name, breaking)
        message = "components violate the first Bianchi identity"
        kind = _kind(kahler)
        with pytest.raises(InvalidInputError, match=message):
            rigidity._factor_maps(kind, dims, kind.real(dims[0]), 2 if kahler else 1)
        assert cli.run(["verify", *argv, "--samples", "3"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,kahler,dims", [
        (["product-spheres", "--n1", "3", "--n2", "3"], False, (3, 3)),
        (["product-spheres", "--n1", "2", "--n2", "3"], False, (2, 3)),
        (["product-kahler", "--m1", "2", "--m2", "1"], True, (2, 1)),
        (["line", "--n", "5"], False, (4,)),
    ], ids=["equal", "unequal", "kahler", "line"])
    def test_one_fill_per_factor_and_detectors_read_the_builders_tensors(
            self, argv, kahler, dims, monkeypatch, capsys):
        kind = _kind(kahler)
        build = random_kahler_curvatures if kahler else random_curvatures
        draws, detected = [], []

        def drawing(seeds, shape):
            draws.append((shape, list(seeds)))
            return curvature.standard_normal_draws(seeds, shape)

        def detecting(real):
            def detect(r):
                detected.append(r.components)
                return real(r)
            return detect

        monkeypatch.setattr(rigidity, "standard_normal_draws", drawing)
        for name in ("constant_sectional", "constant_holomorphic"):
            monkeypatch.setattr(rigidity, name, detecting(getattr(rigidity, name)))
        # tol 50 classifies every sample, so each one reaches the detectors
        assert cli.run(["verify", *argv, "--samples", "5", "--tol", "50"]) == 1
        report = json.loads(capsys.readouterr().out)
        records = report["counterexamples"] + report["findings"]
        assert sorted(r["sample"] for r in records if "sample" in r) == list(range(5))
        # one fill per factor, equal sizes included, over that factor's
        # seeds: today's seeds
        seeds = [[numerics.derived_seed(0, len(dims) * idx + j) for idx in range(5)]
                 for j in range(len(dims))]
        assert [(kind.shape(d), seeds[j]) for j, d in enumerate(dims)] == draws
        # the draws are bitwise the builders' own
        for shape, drawn in draws:
            own = []

            def recording(seeds, out):
                own.append(numerics.fill_standard_normal(seeds, out).copy())
                return out

            monkeypatch.setattr(curvature, "fill_standard_normal", recording)
            build({kind.shape(d): d for d in dims}[shape], drawn)
            monkeypatch.undo()
            assert np.array_equal(own[0], curvature.standard_normal_draws(drawn, shape))
        # each detector reads bitwise its seed's own tensor of the builders
        assert len(detected) == 5 * len(dims)
        for k, components in enumerate(detected):
            idx, j = divmod(k, len(dims))
            assert np.array_equal(components, build(dims[j], [seeds[j][idx]])[0])

    @pytest.mark.parametrize("argv,kahler,dims,sizes", [
        (["line", "--n", "5", "--samples", "130"], False, (4,), [64, 64, 2]),
        (["product-kahler", "--m1", "1", "--m2", "1", "--samples", "70"], True, (1, 1), [64, 6]),
        (["product-kahler", "--m1", "2", "--m2", "1", "--samples", "70"], True, (2, 1), [64, 6]),
        (["line", "--n", "8", "--samples", "70"], False, (7,), [64, 6]),
        (["product-kahler", "--m1", "2", "--m2", "3", "--samples", "30"], True, (2, 3), [26, 4]),
    ], ids=["line5", "kahler11", "kahler21", "line8", "kahler23"])
    def test_a_classified_block_is_drawn_once(self, argv, kahler, dims, sizes, monkeypatch,
                                              capsys):
        # mapped (line5, kahler11, kahler21) and unmapped (line8, kahler23),
        # over a block seam: every sample classifies at tol 50, and its
        # detectors read its block's own draws, drawn by one fill per factor
        # per block
        kind = _kind(kahler)
        build = random_kahler_curvatures if kahler else random_curvatures
        real_fill = curvature.fill_standard_normal
        fills, detected = [], []

        def filling(seeds, out):
            fills.append((out.shape[1:], len(seeds)))
            return real_fill(seeds, out)

        def detecting(real):
            def detect(r):
                detected.append(r.components)
                return real(r)
            return detect

        monkeypatch.setattr(curvature, "fill_standard_normal", filling)
        for name in ("constant_sectional", "constant_holomorphic"):
            monkeypatch.setattr(rigidity, name, detecting(getattr(rigidity, name)))
        assert cli.run(["verify", *argv, "--tol", "50"]) == 1
        report = json.loads(capsys.readouterr().out)
        records = report["counterexamples"] + report["findings"]
        assert sorted(r["sample"] for r in records if "sample" in r) == list(range(sum(sizes)))
        assert fills == [(kind.shape(d), size) for size in sizes for d in dims]
        monkeypatch.undo()
        assert len(detected) == sum(sizes) * len(dims)
        for k, components in enumerate(detected):
            idx, j = divmod(k, len(dims))
            seed = numerics.derived_seed(0, len(dims) * idx + j)
            assert np.array_equal(components, build(dims[j], [seed])[0])


_CERTIFIED_SIZES = (
    [("line", {"n": n}) for n in range(4, 8)]
    + [("product-spheres", {"n1": n1, "n2": n2}) for n1, n2 in ((2, 2), (2, 3), (3, 2), (3, 3))]
    + [("product-kahler", {"m1": m1, "m2": m2}) for m1, m2 in ((1, 1), (1, 2), (2, 1), (2, 2))])
_CERTIFIED_TOLS = (1e-9, 1.0, 2.0, 3.0, 5.0, 50.0)
# (harness, parameters, tol) -> (open, classified) samples of the first
# 64-sample block at seed 0
_SPLIT_BLOCKS = {
    ("line", (6,), 3.0): (25, 0),
    ("product-spheres", (3, 3), 5.0): (59, 11),
    ("product-kahler", (1, 2), 1.0): (49, 3),
}


def _harness_blocks(case, params, seed, block):
    """The bordered blocks of samples ``block`` of a sampled harness at
    ``seed``, through the factors' maps, from the draws' images without
    them, and by the tensor route over the builders' tensors, and n1, n2
    and the harness constant."""
    family, _ = rigidity._HARNESSES[case]
    dims, kind = family.dims(params), family.factors
    n1, n2 = [kind.real(d) for d in dims] + [1] * (2 - len(dims))
    seeds = [[numerics.derived_seed(seed, len(dims) * idx + j) for j in range(len(dims))]
             for idx in block]
    draws = [curvature.standard_normal_draws(column, kind.shape(d))
             for d, column in zip(dims, zip(*seeds))]
    routes = [rigidity._bordered_matrices(kind, dims, draws, n1, n2, maps)
              for maps in (rigidity._factor_maps(kind, dims, n1, n2), None)]
    parts = [_factor_stack(kind is rigidity._COMPLEX, d, [s[j] for s in seeds])
             for j, d in enumerate(dims)] + [flat_tensor(1).components] * (2 - len(dims))
    return (*routes, block_matrices(parts)), n1, n2, family.constant(params)


def _solve_everything(mats, n1, n2, alpha, tol):
    """``rigidity._block_verdicts`` without its certificate."""
    return operator2k.verdict(bordered_spectra(mats, n1, n2), alpha, tol)


class TestDiagonalCertificate:
    """A block whose sorted diagonal, with the mixed zeros, puts g(alpha)
    and g of its negation below -tol by more than the rounding bound is
    ``neither`` without a spectrum; the other blocks are solved, so every
    verdict is the solved route's."""

    @staticmethod
    def solved_rows(monkeypatch):
        """List that gets the number of blocks of each ``eigensolve`` call
        that ``rigidity`` makes."""
        real = numerics.eigensolve
        rows = []

        def counting(m, *args, **kwargs):
            rows.append(len(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(rigidity, "eigensolve", counting)
        return rows

    @pytest.mark.parametrize("case,params", _CERTIFIED_SIZES)
    def test_verdicts_equal_the_solved_route(self, case, params, monkeypatch):
        solved = self.solved_rows(monkeypatch)
        split, certified = False, {tol: 0 for tol in _CERTIFIED_TOLS}
        for seed in range(10):
            # block `seed` of a run at `seed`: ten different sets of samples
            routes, n1, n2, alpha = _harness_blocks(case, params, seed,
                                                    range(64 * seed, 64 * seed + 64))
            for mats in routes:
                spectra = bordered_spectra(mats, n1, n2)
                for tol in _CERTIFIED_TOLS:
                    solved.clear()
                    verdicts = rigidity._block_verdicts(mats, n1, n2, alpha, tol)
                    assert verdicts == operator2k.verdict(spectra, alpha, tol)
                    assert len(solved) <= 1
                    opened = sum(solved)
                    split = split or 0 < opened < 64
                    certified[tol] += 64 - opened
                    key = (case, tuple(params.values()), tol)
                    if seed == 0 and key in _SPLIT_BLOCKS:
                        classified = 64 - verdicts.count("neither")
                        assert (opened, classified) == _SPLIT_BLOCKS[key]
        # the diagonal decides samples at the default tol, none at tol 50,
        # where every sample classifies, and splits some block between the
        # certificate and the eigensolve
        assert certified[1e-9] > 0
        assert certified[50.0] == 0
        assert split

    @pytest.mark.parametrize("case,params", _CERTIFIED_SIZES)
    def test_near_model_blocks_reach_the_eigensolve(self, case, params, monkeypatch):
        family, _ = rigidity._HARNESSES[case]
        dims, kind = family.dims(params), family.factors
        # unit models plus 1e-6 times a random tensor of their kind
        parts = [kind.model(d, 1.0).components
                 + 1e-6 * _factor_stack(kind is rigidity._COMPLEX, d,
                                        [100 * j + i for i in range(64)])
                 for j, d in enumerate(dims)] + [flat_tensor(1).components] * (2 - len(dims))
        n1, n2 = (p.shape[-1] for p in parts)
        mats = block_matrices(parts)
        alpha = family.constant(params)
        solved = self.solved_rows(monkeypatch)
        # above the noise's reach every sample classifies, so none is certified
        assert rigidity._block_verdicts(mats, n1, n2, alpha, 1e-5) == ["nonnegative"] * 64
        assert solved == [64]
        for tol in (1e-9, 1e-7):
            assert (rigidity._block_verdicts(mats, n1, n2, alpha, tol)
                    == _solve_everything(mats, n1, n2, alpha, tol))

    def test_the_bound_covers_the_rounding_of_a_tie(self, monkeypatch):
        # M = A (+) B, A's eigenvalues below B's diagonal: the 4 smallest
        # diagonal entries are A's, whose sum tr A is g(4) of the spectrum,
        # so rounding alone separates the two sums. At tol = -g of the
        # solved spectrum that spectrum is nonnegative, and only the bound
        # keeps the diagonal's own rounding from certifying it
        rng = np.random.default_rng(5)
        k, width, count = 4, 10, 256
        q = np.linalg.qr(rng.standard_normal((count, k, k)))[0]
        a = (q * rng.uniform(-5.0, -2.0, (count, 1, k))) @ q.swapaxes(-1, -2)
        mats = np.zeros((count, width, width))
        mats[:, :k, :k] = (a + a.swapaxes(-1, -2)) / 2
        mats[:, range(k, width), range(k, width)] = rng.uniform(2.0, 5.0, (count, width - k))
        spectra = bordered_spectra(mats, 1, 1)
        below = 0
        for mat, s in zip(mats, spectra):
            g = operator2k.alpha_sum(s, k)
            diagonal = np.sort(np.append(np.diag(mat), 0.0))
            below += operator2k.alpha_sum(diagonal, k) < g
            for tol in (-g, np.nextafter(-g, math.inf), np.nextafter(-g, 0.0)):
                assert (rigidity._block_verdicts(mat[None], 1, 1, float(k), tol)
                        == [operator2k.verdict(s, k, tol)])
        # the diagonal's float sum lies below the spectrum's often enough
        # that a certificate without the bound would certify a classified
        # block
        assert below > count // 8

    @pytest.mark.parametrize("entries,bad", [
        ([(0, 1)], np.nan), ([(0, 1)], np.inf), ([(0, 0)], -1e308), ([(0, 0), (1, 1)], -1e308)])
    def test_a_non_finite_or_overflowing_block_ends_as_the_solved_route(
            self, entries, bad, monkeypatch):
        # off the diagonal, which alone would still certify the block, or
        # on it, where the symmetrization and the diagonal's sum overflow
        (mats, *_), n1, n2, alpha = _harness_blocks("line", {"n": 6}, 0, range(64))
        solved = self.solved_rows(monkeypatch)
        assert rigidity._block_verdicts(mats, n1, n2, alpha, 1e-9) == ["neither"] * 64
        assert solved == []
        for i, j in entries:
            mats[3, i, j] = mats[3, j, i] = bad
        errors = []
        for classify in (_solve_everything, rigidity._block_verdicts):
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises((ConvergenceError, FloatingPointError)) as info:
                    classify(mats, n1, n2, alpha, 1e-9)
            errors.append((info.type, str(info.value)))
        assert errors[0] == errors[1]
        # the whole stack goes to the eigensolve, as without the certificate
        assert solved == [64]

    @pytest.mark.parametrize("tol,solved", [("1e-9", [1]), ("50", [1, 64])])
    def test_one_solve_at_the_default_tol(self, tol, solved, monkeypatch, capsys):
        rigidity._clear_model_caches()
        counted = TestCheckRigidity.count_solved(monkeypatch)
        assert cli.run(["verify", "line", "--n", "6", "--samples", "64", "--tol", tol]) in (0, 1)
        capsys.readouterr()
        # the model's solve, and at tol 50 the one 64-sample block
        assert counted == solved

    @pytest.mark.parametrize("argv", [
        ["line", "--n", "6", "--samples", "64", "--tol", "3"],
        ["product-spheres", "--n1", "3", "--n2", "3", "--samples", "64", "--tol", "5"],
        ["product-kahler", "--m1", "1", "--m2", "2", "--samples", "64", "--tol", "1"],
        ["product-kahler", "--m1", "1", "--m2", "1", "--samples", "70"],
        ["product-kahler", "--m1", "2", "--m2", "2", "--samples", "70"],
        ["line", "--n", "8", "--samples", "20", "--tol", "10"],
        ["product-spheres", "--n1", "4", "--n2", "5", "--samples", "20", "--tol", "10"],
    ], ids=["line6-tol3", "spheres33-tol5", "kahler12-tol1", "kahler11", "kahler22",
            "line8-tol10", "spheres45-tol10"])
    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_report_equals_the_solved_route(self, argv, seed, monkeypatch, capsys):
        reports = []
        for _ in range(2):
            assert cli.run(["verify", *argv, "--seed", seed]) in (0, 1)
            reports.append(json.loads(capsys.readouterr().out))
            reports[-1].pop("timing", None)
            monkeypatch.setattr(rigidity, "_block_verdicts", _solve_everything)
        assert reports[0] == reports[1]
        assert reports[0]["samples_run"] > 0


_SWEEP_SIZES = (
    [("iff-spheres", {"n1": n1, "n2": n2}) for n1, n2 in ((2, 2), (2, 3), (3, 2), (3, 3))]
    + [("iff-kahler", {"m1": m1, "m2": m2}) for m1, m2 in ((1, 1), (1, 2), (2, 1), (2, 2))])
_SEEDED_GRIDS = [list(rigidity.DEFAULT_KAPPA_GRID), [0.5, 1.0, 2.0],
                 [0.25 * k for k in range(1, 10)]]


def _findings(pairs, positives):
    """The sweep's findings from each grid pair's positive verdict."""
    out = []
    for (k1, k2), positive in zip(pairs, positives):
        for name, v, expected in (("positive", positive, "nonnegative"),
                                  ("negative", NEGATED_VERDICT[positive],
                                   "nonpositive")):
            if (v == expected) != (k1 == k2):
                out.append({"family": name, "kappa1": k1, "kappa2": k2,
                            "verdict": v, "equal_kappa": k1 == k2})
    return out


def lapack_findings(case, params, grid, tol):
    """The findings of the tensor route the sweep replaced: the model stacks
    filled, assembled on the bordered block and solved by LAPACK."""
    family, _ = rigidity._HARNESSES[case]
    pairs = [(k1, k2) for k1 in grid for k2 in grid]
    parts = [np.stack([family.factors.model(d, pair[j]).components for pair in pairs])
             for j, d in enumerate(family.dims(params))]
    spectra = bordered_spectra(block_matrices(parts), *(p.shape[-1] for p in parts))
    return _findings(pairs, operator2k.verdict(spectra, family.constant(params), tol))


def fraction_findings(case, params, grid, tol):
    """The findings with every grid pair decided in Fraction, at the exact
    constant."""
    d1, d2 = params.values()
    if case == "iff-spheres":
        kind, n1, n2, constant = "sphere", d1, d2, exact_a(d1, d2)
    else:
        kind, n1, n2, constant = "cp", 2 * d1, 2 * d2, exact_b(d1, d2)
    pairs = [(k1, k2) for k1 in grid for k2 in grid]
    positives = []
    for k1, k2 in pairs:
        clusters = product_clusters(kind, n1, Fraction(k1), n2, Fraction(k2))
        negated = [(-v, m) for v, m in clusters]
        positives.append(operator2k.VERDICTS[exact_g(clusters, constant) >= -Fraction(tol),
                                             exact_g(negated, constant) >= -Fraction(tol)])
    return _findings(pairs, positives)


class TestClosedFormSweep:
    """The iff sweeps decide every grid pair from its closed-form spectrum,
    in floats where rounding cannot decide and in Fraction where it could."""

    @pytest.mark.parametrize("case,params", _SWEEP_SIZES)
    def test_sweep_builds_no_tensor_and_solves_nothing(self, case, params, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the sweep reached the tensor route")

        for module, names in (
                (rigidity, ("space_form", "kahler_space_form", "flat_tensor", "product",
                            "operator_matrices", "operator_matrix", "eigensolve", "spectrum",
                            "standard_normal_draws", "_images", "_bordered_matrices",
                            "_block_verdicts")),
                (curvature, ("space_form", "kahler_space_form", "product_components")),
                (operator2k, ("operator_matrices", "eigensolve")),
                (numerics, ("eigensolve",)), (np.linalg, ("eigvalsh", "eigh"))):
            for name in names:
                monkeypatch.setattr(module, name, boom)
        real = rigidity.leaf_closed_form
        leaves = []

        def counting(kind, dim, kappa):
            leaves.append((dim, kappa))
            return real(kind, dim, kappa)

        monkeypatch.setattr(rigidity, "leaf_closed_form", counting)
        rigidity._clear_model_caches()
        grid = [0.5, 1.0, 2.0, 1e30]
        for _ in range(2):
            report = check_rigidity(case, {**params, "grid": grid})
            assert report.samples_run == 2 * len(grid) ** 2
            assert report.details["mismatches"] == len(report.findings)
        # no float leaf: each factor's exact leaves at curvatures 1 and 0
        # once, for the forms of the first sweep, which the second reads
        real_dims = [2 * p for p in params.values()] if case == "iff-kahler" else params.values()
        assert sorted(leaves) == sorted((d, k) for d in real_dims for k in (0, 1))
        assert all(type(k) is Fraction for _, k in leaves)

    @pytest.mark.parametrize("case,params", _SWEEP_SIZES)
    def test_sweep_runs_no_einstein_test(self, case, params, monkeypatch):
        # only a fold over more factors reads a product's rho, so no grid
        # pair, float or Fraction, compares the factors' Einstein constants
        calls = []
        real = descriptors.joins_cluster

        def counting(previous, value):
            calls.append((previous, value))
            return real(previous, value)

        monkeypatch.setattr(descriptors, "joins_cluster", counting)
        report = check_rigidity(case, {**params, "grid": [0.5, 1.0, 2.0, 1e30]})
        assert report.samples_run == 32
        assert calls == []

    @pytest.mark.parametrize("tol", [1e-9, 50.0])
    @pytest.mark.parametrize("grid", _SEEDED_GRIDS, ids=["default", "three", "nine"])
    @pytest.mark.parametrize("case,params", _SWEEP_SIZES)
    def test_seeded_grids_keep_the_findings_of_the_tensor_route(self, case, params, grid, tol):
        report = check_rigidity(case, {**params, "grid": grid}, tol=tol)
        assert report.findings == lapack_findings(case, params, grid, tol)

    @given(case=st.sampled_from(_SWEEP_SIZES),
           grid=st.lists(st.one_of(st.floats(1 / 16, 16), st.sampled_from([0.25, 0.5, 1.0, 3.0])),
                         min_size=1, max_size=4),
           tol=st.sampled_from([1e-9, 50.0]))
    @settings(max_examples=150, deadline=None)
    def test_findings_equal_the_tensor_route_at_ordinary_scales(self, case, grid, tol):
        report = check_rigidity(case[0], {**case[1], "grid": grid}, tol=tol)
        assert report.findings == lapack_findings(*case, grid, tol)

    @given(case=st.sampled_from(_SWEEP_SIZES),
           grid=st.lists(st.one_of(st.floats(5e-324, sys.float_info.max),
                                   st.sampled_from([5e-324, 1e-323, 2.2e-308, 1.0, 1e30,
                                                    1.1e30, 1e300, 1e307, 3e307, 1e308,
                                                    sys.float_info.max])),
                         min_size=1, max_size=4),
           tol=st.one_of(st.sampled_from([5e-324, 1e-9, 50.0]), st.floats(5e-324, 1e3)))
    @settings(max_examples=200, deadline=None)
    def test_filtered_route_equals_the_fraction_route(self, case, grid, tol):
        report = check_rigidity(case[0], {**case[1], "grid": grid}, tol=tol)
        assert report.findings == fraction_findings(*case, grid, tol)

    @pytest.mark.parametrize("scale", [1e30, 1e100])
    @pytest.mark.parametrize("tol", [1e-9, 50.0])
    @pytest.mark.parametrize("case,params", [
        ("iff-spheres", {"n1": 2, "n2": 3}), ("iff-spheres", {"n1": 3, "n2": 3}),
        ("iff-kahler", {"m1": 1, "m2": 2}), ("iff-kahler", {"m1": 2, "m2": 2})])
    def test_no_equal_kappa_finding_at_large_scales(self, case, params, tol, scale):
        # g is exactly 0 (spheres) or positive (Kahler) at equal curvatures,
        # while its float rounding there is about 1e15 at 1e30
        grid = [scale * (1 + k / 7) for k in range(12)]
        report = check_rigidity(case, {**params, "grid": grid}, tol=tol)
        assert not [f for f in report.findings if f["equal_kappa"]]
        assert report.findings == fraction_findings(case, params, grid, tol)

    def test_kahler_pair_at_1e307_is_exactly_nonnegative(self):
        # g(B) of CP^1(1e307) x CP^1(1) is 6 exactly, about 0 in floats
        report = check_rigidity("iff-kahler", {"grid": [1e307, 1.0]})
        assert len(report.findings) == 4
        assert {f["verdict"] for f in report.findings} == {"nonnegative", "nonpositive"}
        clusters = product_clusters("cp", 2, Fraction(1e307), 2, Fraction(1))
        assert exact_g(clusters, exact_b(1, 1)) == 6

    @pytest.mark.parametrize("case", ["iff-spheres", "iff-kahler"])
    @pytest.mark.parametrize("grid", ["1e308,1", "5e307,1", "3e307,1",
                                      "1.7976931348623157e308,1"])
    def test_overflowing_closed_form_is_decided_exactly(self, case, grid, capsys):
        # the float sums overflow to inf or NaN, so these pairs take the
        # Fraction route instead of ending in a numeric failure
        assert cli.run(["verify", case, "--kappa-grid", grid]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        kappas = [float(k) for k in grid.split(",")]
        report = json.loads(captured.out)
        params = {name: report["parameters"][name] for name in rigidity._HARNESSES[case][0].names}
        assert report["findings"] == fraction_findings(case, params, kappas, 1e-9)

    @staticmethod
    def count_exact(monkeypatch):
        """List that gets each grid pair (k1, k2) the exact route decides."""
        pairs = []
        real = rigidity._exact_g

        def counting(forms, k1, k2):
            pairs.append((k1, k2))
            return real(forms, k1, k2)

        monkeypatch.setattr(rigidity, "_exact_g", counting)
        return pairs

    @pytest.mark.parametrize("case", ["iff-spheres", "iff-kahler"])
    def test_default_grid_takes_no_fraction_route(self, case, monkeypatch):
        pairs = self.count_exact(monkeypatch)
        check_rigidity(case)
        assert pairs == []

    @pytest.mark.parametrize("case,grid,pairs", [
        ("iff-spheres", [1e308, 1.0], 3), ("iff-spheres", [3e307, 1.0], 1),
        ("iff-spheres", [5e307, 1.0], 1), ("iff-kahler", [1e308, 1.0], 3),
        ("iff-kahler", [3e307, 1.0], 3), ("iff-kahler", [5e307, 1.0], 3)])
    def test_exact_route_takes_the_pairs_whose_float_forms_overflow(
            self, case, grid, pairs, monkeypatch):
        # and the spheres' equal curvatures above 1, where g is exactly 0
        # and the forms' rounding bound is above tol
        taken = self.count_exact(monkeypatch)
        check_rigidity(case, {"grid": grid})
        family, _ = rigidity._HARNESSES[case]
        _, floats = rigidity._sweep_forms(family, tuple((n, family.least) for n in family.names))
        with np.errstate(over="ignore"):
            overflowing = {(k1, k2) for k1 in grid for k2 in grid
                           if not np.isfinite(np.abs(floats) @ [k1, k2]).all()}
        ties = {(k, k) for k in grid if k > 1.0} if case == "iff-spheres" else set()
        assert len(taken) == len(set(taken)) == pairs
        assert set(taken) == overflowing | ties

    @pytest.mark.parametrize("case", ["iff-spheres", "iff-kahler"])
    def test_overflowing_sweep_is_quiet_under_any_errstate(self, case, capsys):
        # the array pass ignores overflow and invalid values itself, so a
        # caller whose errstate raises everything still gets the exact route
        with np.errstate(all="raise"):
            assert cli.run(["verify", case, "--kappa-grid", "1e308,1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["samples_run"] == 8

    def test_exact_route_makes_each_leaf_and_the_constant_once(self, monkeypatch):
        leaves, constants = [], []
        real_leaf, real_constant = rigidity.leaf_closed_form, rigidity.b_const

        def leaf(kind, dim, kappa):
            leaves.append((dim, kappa))
            return real_leaf(kind, dim, kappa)

        def constant(m1, m2, one=1.0):
            constants.append(one)
            return real_constant(m1, m2, one)

        monkeypatch.setattr(rigidity, "leaf_closed_form", leaf)
        monkeypatch.setattr(rigidity, "b_const", constant)
        rigidity._clear_model_caches()
        pairs = self.count_exact(monkeypatch)
        grid = [1.7976931348623157e308 * (1 - k / 1000) for k in range(5)]
        check_rigidity("iff-kahler", {"grid": grid})
        # every pair goes exact, yet the forms are made once, of the unit
        # leaves and the exact constant, beside the report's float constant
        assert len(pairs) == len(grid) ** 2
        assert sorted(leaves) == [(2, 0), (2, 0), (2, 1), (2, 1)]
        assert [type(one) for one in constants] == [float, Fraction]
        # a second sweep of that size makes no leaf and no exact constant
        check_rigidity("iff-kahler", {"grid": grid})
        assert len(pairs) == 2 * len(grid) ** 2
        assert len(leaves) == 4
        assert [type(one) for one in constants] == [float, Fraction, float]


# every sweep size of real dimension n1 + n2 <= 12
_FORM_SIZES = (
    [("iff-spheres", {"n1": n1, "n2": n2}) for n1 in range(2, 11) for n2 in range(2, 13 - n1)]
    + [("iff-kahler", {"m1": m1, "m2": m2}) for m1 in range(1, 6) for m2 in range(1, 7 - m1)])


def _forms(case, params):
    family, _ = rigidity._HARNESSES[case]
    return rigidity._sweep_forms(family, tuple(params.items()))


class TestSweepForms:
    """Each side's g of a product of two space forms is the least of its
    sweep forms, exactly, at every pair of positive curvatures."""

    @pytest.mark.parametrize("case,params", _FORM_SIZES,
                             ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p in _FORM_SIZES])
    def test_least_form_is_the_exact_g(self, case, params):
        d1, d2 = params.values()
        if case == "iff-spheres":
            kind, n1, n2, constant = "sphere", d1, d2, exact_a(d1, d2)
        else:
            kind, n1, n2, constant = "cp", 2 * d1, 2 * d2, exact_b(d1, d2)
        forms, floats = _forms(case, params)
        # the crossings of the cluster lines, where the clusters tie
        lines = list(zip(product_clusters(kind, n1, Fraction(1), n2, Fraction(0)),
                         product_clusters(kind, n1, Fraction(0), n2, Fraction(1))))
        crossings = {(a2 - a1) / (b1 - b2) for (a1, _), (b1, _) in lines
                     for (a2, _), (b2, _) in lines if b1 != b2}
        rng = np.random.default_rng(sum(map(ord, case)) + 100 * d1 + d2)
        kappas = [(Fraction(int(p), int(q)), Fraction(int(s), int(t)))
                  for p, q, s, t in rng.integers(1, 1000, size=(20, 4))]
        kappas += [(Fraction(1), r) for r in crossings if r > 0]
        for k1, k2 in kappas:
            clusters = product_clusters(kind, n1, k1, n2, k2)
            negated = [(-v, m) for v, m in clusters]
            assert [min(a * k1 + b * k2 for a, b in side) for side in forms] == [
                exact_g(clusters, constant), exact_g(negated, constant)]
        assert floats.tolist() == [[[float(a), float(b)] for a, b in side] for side in forms]
        assert len(forms[0]) == len(forms[1]) <= 2
        with pytest.raises(ValueError):
            floats[0, 0, 0] = 0.0

    @pytest.mark.parametrize("case,params,product_forms", [
        ("iff-spheres", {"n1": 2, "n2": 2}, {(Fraction(-1, 2), Fraction(1, 2)),
                                             (Fraction(1, 2), Fraction(-1, 2))}),
        ("iff-kahler", {"m1": 1, "m2": 1}, {(0, 6), (6, 0)}),
        ("iff-kahler", {"m1": 2, "m2": 2}, {(-9, 15), (15, -9)}),
        ("iff-kahler", {"m1": 1, "m2": 2}, {(Fraction(-8, 3), Fraction(26, 3)),
                                            (Fraction(16, 3), Fraction(2, 3))})])
    def test_product_forms_of_four_sizes(self, case, params, product_forms):
        # S^2 x S^2 at A: -|k1 - k2| / 2; CP^1 x CP^1 at B: 6 min(k1, k2)
        assert set(_forms(case, params)[0][0]) == product_forms

    def test_a_warm_sweep_builds_no_form(self):
        rigidity._clear_model_caches()
        check_rigidity("iff-kahler", {"m1": 1, "m2": 2})
        assert rigidity._sweep_forms.cache_info().misses == 1
        # another grid and tol of the same size read the same forms
        check_rigidity("iff-kahler", {"m1": 1, "m2": 2, "grid": [1e308, 1.0]}, tol=50.0)
        assert rigidity._sweep_forms.cache_info()[:2] == (1, 1)  # hits, misses
        rigidity._clear_model_caches()
        assert rigidity._sweep_forms.cache_info().currsize == 0

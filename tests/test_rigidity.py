import dataclasses
import json
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
    random_curvature,
    space_form,
)
from secondkind import cli, numerics, operator2k, rigidity
from secondkind.errors import InvalidInputError
from secondkind.rigidity import (
    a_const,
    b_const,
    check_rigidity,
    verify_product_structure,
)

from reference import f_lemma


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
        report = verify_product_structure(random_curvature(3, 5), random_curvature(2, 6))
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

    @pytest.mark.parametrize("case", ["line", "product-spheres", "product-kahler"])
    def test_model_solved_once(self, case, monkeypatch):
        # the model's verdicts, its nonpositive dual and the flatness probe
        # all come from one spectrum
        real = operator2k.eigensolve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(operator2k, "eigensolve", counting)
        report = check_rigidity(case, samples=0)
        assert report.details["model_check"] == "consistent"
        assert len(calls) == 1

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
    def test_sweep_solves_each_grid_point_once(self, case, monkeypatch):
        # the negative family's verdict is read from the positive spectrum
        real = operator2k.eigensolve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(operator2k, "eigensolve", counting)
        grid = [0.5, 1.0, 2.0]
        report = check_rigidity(case, {"grid": grid})
        assert report.samples_run == 2 * len(grid) ** 2
        assert len(calls) == len(grid) ** 2

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
                negated = operator2k.NEGATED_VERDICT[operator2k.verdict(s, alpha)]
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

    def test_rejects_unknown_params(self):
        with pytest.raises(InvalidInputError):
            check_rigidity("line", {"n": 4, "bogus": 1})

    @pytest.mark.parametrize("case", list(rigidity.HARNESS_CASES))
    def test_rejects_samples_above_bound_before_sampling(self, case, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("ran before checking the bound")

        monkeypatch.setattr(rigidity, "spectrum", boom)
        monkeypatch.setattr(rigidity, "classify", boom)
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

    def test_sweep_builds_each_factor_model_once_per_grid_value(self, monkeypatch, capsys):
        real = rigidity.space_form
        calls = []

        def counting(n, c):
            calls.append((n, c))
            return real(n, c)

        monkeypatch.setattr(rigidity, "space_form", counting)
        argv = ["verify", "iff-spheres", "--n1", "2", "--n2", "3", "--kappa-grid", "0.5,1,2"]
        assert cli.run(argv) == 0
        assert json.loads(capsys.readouterr().out)["samples_run"] == 18
        assert sorted(calls) == [(d, k) for d in (2, 3) for k in (0.5, 1.0, 2.0)]

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

import argparse
import dataclasses
import json
import re
import subprocess
import sys
import warnings
from collections import OrderedDict, namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secondkind import cli, rigidity
from secondkind.cli import dumps_json, run
from secondkind.curvature import MAX_DIM
from secondkind.descriptors import (
    DescriptorError,
    build_tensor,
    closed_form_clusters,
    descriptor_to_obj,
    leaf_obj,
    parse_descriptor,
)

REPO = Path(__file__).resolve().parents[1]
DESCRIPTORS = REPO / "descriptors"
GOLDEN = REPO / "tests" / "golden"


Pair = namedtuple("Pair", "first second")


class Text(str):
    pass


def nested_products(depth, leaf='{"kind": "euclidean", "dim": 1}'):
    """JSON text of ``depth`` two-factor products, each the first factor of
    the next, around ``leaf``, with a flat line as every other factor; built
    as text, since ``json.dumps`` may run out of stack at a few hundred
    levels."""
    text = leaf
    for _ in range(depth):
        text = f'{{"kind": "product", "factors": [{text}, {{"kind": "euclidean", "dim": 1}}]}}'
    return text


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "secondkind", *args],
        capture_output=True, text=True, **kwargs,
    )


class TestParseDescriptor:
    def test_product_line(self):
        desc = parse_descriptor(
            '{"kind":"product","factors":[{"kind":"sphere","dim":3,"kappa":1},'
            '{"kind":"euclidean","dim":1}]}'
        )
        assert desc.kind == "product" and desc.dim == 4
        assert desc.factors[0].kappa == 1.0

    def test_cp(self):
        desc = parse_descriptor('{"kind":"cp","m":2,"kappa":1}')
        assert desc.m == 2 and desc.dim == 4

    def test_rejects_small_sphere(self):
        with pytest.raises(DescriptorError, match="dim"):
            parse_descriptor('{"kind":"sphere","dim":1,"kappa":1}')

    def test_rejects_unknown_kind(self):
        with pytest.raises(DescriptorError, match=r"\$\.kind"):
            parse_descriptor('{"kind":"torus","dim":2}')

    def test_rejects_unknown_field_with_path(self):
        with pytest.raises(DescriptorError, match="unknown field"):
            parse_descriptor('{"kind":"sphere","dim":2,"kappa":1,"extra":5}')

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(DescriptorError, match="positive"):
            parse_descriptor('{"kind":"hyperbolic","dim":2,"kappa":-1}')

    def test_rejects_single_factor_product(self):
        with pytest.raises(DescriptorError, match="factors"):
            parse_descriptor('{"kind":"product","factors":[{"kind":"sphere","dim":2,"kappa":1}]}')

    def test_rejects_bad_json(self):
        with pytest.raises(DescriptorError, match="invalid JSON"):
            parse_descriptor("{nope")

    def test_integer_literal_bounded_by_double_range(self):
        largest = int(sys.float_info.max)
        text = '{"kind":"sphere","dim":3,"kappa":%d}'
        assert parse_descriptor(text % largest).kappa == sys.float_info.max
        with pytest.raises(DescriptorError, match="overflows to a non-finite double"):
            parse_descriptor(text % 2 ** 1024)

    def test_custom_component_count_checked(self):
        with pytest.raises(DescriptorError, match="16"):
            parse_descriptor('{"kind":"custom","dim":2,"components":[0,0,0]}')

    def test_custom_invariants_checked(self):
        comps = [0.0] * 16
        comps[0] = 1.0  # R[0,0,0,0] != 0 breaks antisymmetry
        text = json.dumps({"kind": "custom", "dim": 2, "components": comps})
        with pytest.raises(DescriptorError, match="components"):
            build_tensor(parse_descriptor(text))

    @pytest.mark.parametrize("obj,field,total", [
        ({"kind": "euclidean", "dim": MAX_DIM + 1}, "dim", MAX_DIM + 1),
        ({"kind": "cp", "m": MAX_DIM // 2 + 1, "kappa": 1}, "m", MAX_DIM + 2),
        ({"kind": "product", "factors": [{"kind": "sphere", "dim": MAX_DIM - 1, "kappa": 1},
                                         {"kind": "complex_euclidean", "m": 1}]},
         "factors", MAX_DIM + 1),
        # rejected before the components, which are not even a list, are read
        ({"kind": "custom", "dim": 10**7, "components": None}, "dim", 10**7),
    ], ids=["leaf-dim", "leaf-m", "product-total", "custom-dim"])
    def test_rejects_total_dimension_above_bound(self, obj, field, total):
        with pytest.raises(DescriptorError,
                           match=rf"\$\.{field}: total dimension {total} exceeds the limit"):
            parse_descriptor(json.dumps(obj))

    def test_accepts_total_dimension_at_bound(self):
        half = {"kind": "euclidean", "dim": MAX_DIM // 2}
        assert parse_descriptor(json.dumps({"kind": "product", "factors": [half, half]})).dim \
            == MAX_DIM

    def test_roundtrip_through_canonical_form(self):
        for name in ("s3xr", "cp1xcp1", "s2xs2", "cp2", "custom_flat2"):
            text = (DESCRIPTORS / f"{name}.json").read_text()
            desc = parse_descriptor(text)
            assert parse_descriptor(json.dumps(descriptor_to_obj(desc))) == desc


# kind, size field, least size, message when smaller, whether it takes kappa
LEAF_ROWS = [
    ("sphere", "dim", 2, "sphere/hyperbolic dimension must be at least 2", True),
    ("hyperbolic", "dim", 2, "sphere/hyperbolic dimension must be at least 2", True),
    ("euclidean", "dim", 1, "euclidean dimension must be at least 1", False),
    ("cp", "m", 1, "complex dimension must be at least 1", True),
    ("ch", "m", 1, "complex dimension must be at least 1", True),
    ("complex_euclidean", "m", 1, "complex dimension must be at least 1", False),
]


@pytest.mark.parametrize("kind,size,least,too_small,curved", LEAF_ROWS)
class TestLeafKinds:
    @staticmethod
    def errors(obj):
        """The error of a bad leaf alone and as the second factor of a product."""
        messages = []
        for text in (json.dumps(obj), json.dumps(
                {"kind": "product", "factors": [{"kind": "euclidean", "dim": 1}, obj]})):
            with pytest.raises(DescriptorError) as info:
                parse_descriptor(text)
            messages.append(str(info.value))
        return messages

    @staticmethod
    def leaf(kind, size, value, with_kappa):
        obj = {"kind": kind, size: value}
        if with_kappa:
            obj["kappa"] = 1.0
        return obj

    def test_size_below_least(self, kind, size, least, too_small, curved):
        assert self.errors(self.leaf(kind, size, least - 1, curved)) == [
            f"$.{size}: {too_small}", f"$.factors[1].{size}: {too_small}"]

    def test_bool_size(self, kind, size, least, too_small, curved):
        assert self.errors(self.leaf(kind, size, True, curved)) == [
            f"$.{size}: expected an integer", f"$.factors[1].{size}: expected an integer"]

    def test_kappa_field(self, kind, size, least, too_small, curved):
        if curved:
            obj = self.leaf(kind, size, least, False)
            expected = "missing required field 'kappa'"
        else:
            obj = self.leaf(kind, size, least, True)
            expected = f"unknown field(s) ['kappa']; allowed: {sorted(['kind', size])}"
        assert self.errors(obj) == [f"$: {expected}", f"$.factors[1]: {expected}"]

    def test_leaf_obj_round_trip(self, kind, size, least, too_small, curved):
        obj = leaf_obj(kind, least + 1, 1.5 if curved else None)
        assert obj == {"kind": kind, size: least + 1, **({"kappa": 1.5} if curved else {})}
        desc = parse_descriptor(json.dumps(obj))
        assert desc.dim == (2 if size == "m" else 1) * (least + 1)
        assert descriptor_to_obj(desc) == obj


class TestClosedForms:
    def test_sphere(self):
        desc = parse_descriptor('{"kind":"sphere","dim":4,"kappa":2}')
        assert closed_form_clusters(desc) == [(2.0, 9)]

    def test_merges_coincident_values(self):
        # equal-curvature sphere and hyperbolic factors put the trace
        # eigenvalue exactly at zero, on top of the mixed-block kernel
        desc = parse_descriptor(
            '{"kind":"product","factors":[{"kind":"sphere","dim":2,"kappa":1},'
            '{"kind":"hyperbolic","dim":2,"kappa":1}]}'
        )
        assert closed_form_clusters(desc) == [(-1.0, 2), (0.0, 5), (1.0, 2)]

    def test_custom_has_no_closed_form(self):
        text = (DESCRIPTORS / "custom_flat2.json").read_text()
        assert closed_form_clusters(parse_descriptor(text)) is None

    def test_triple_product_fold(self):
        desc = parse_descriptor(
            '{"kind":"product","factors":['
            '{"kind":"sphere","dim":2,"kappa":1},'
            '{"kind":"sphere","dim":2,"kappa":1},'
            '{"kind":"euclidean","dim":1}]}'
        )
        clusters = closed_form_clusters(desc)
        assert clusters is not None
        assert sum(m for _, m in clusters) == 14


class TestJsonEmitter:
    def test_float_17_digits_roundtrip(self):
        values = [0.1, 1.0 / 3.0, -0.5000000000000001, 1e-300, 123456789.123456789]
        text = dumps_json({"values": values})
        parsed = json.loads(text)["values"]
        assert parsed == values

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_json({"x": float("nan")})

    @pytest.mark.parametrize("value,message", [
        (float("nan"), "cannot serialize non-finite float nan"),
        (float("-inf"), "cannot serialize non-finite float -inf"),
    ])
    def test_non_finite_message(self, value, message):
        for obj in (value, [1, {"x": value}]):
            with pytest.raises(ValueError) as info:
                dumps_json(obj)
            assert str(info.value) == message

    @pytest.mark.parametrize("value,name", [
        ({1, 2}, "set"), (b"x", "bytes"), (np.int64(3), "int64"), (np.array([1.0]), "ndarray"),
        (object(), "object"), (np.float64("inf"), "float64"),
    ])
    def test_unknown_type_message(self, value, name):
        for obj in (value, {"a": [value]}):
            with pytest.raises(TypeError) as info:
                dumps_json(obj)
            assert str(info.value) == f"cannot serialize {name}"

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda children: (st.lists(children) | st.lists(children).map(tuple)
                          | st.dictionaries(st.text(), children)),
        max_leaves=30,
    ))
    @settings(max_examples=200, deadline=None)
    def test_float_free_trees_equal_json_dumps(self, obj):
        assert dumps_json(obj) == json.dumps(obj, indent=2)

    def test_scalars_containers_and_keys(self):
        obj = {
            "flags": [True, False, None],
            "empty": [[], {}, ()],
            1: {2: "int keys"},
            "nested": {"a": [{"b": []}]},
        }
        assert dumps_json(obj) == json.dumps(obj, indent=2)
        assert dumps_json(0.1) == "0.10000000000000001"
        assert dumps_json({}) == "{}" and dumps_json([]) == "[]" and dumps_json(()) == "[]"
        # the emitter dispatches on the exact type: subclasses and numpy
        # scalars are not serialized as their base type
        for value, name in [(np.float64(0.1), "float64"), (OrderedDict(z=1, a=[2]), "OrderedDict"),
                            (Pair(3, "4"), "Pair"), (Text("five"), "Text")]:
            for wrapped in (value, [-2.5, {"x": value}]):
                with pytest.raises(TypeError) as info:
                    dumps_json(wrapped)
                assert str(info.value) == f"cannot serialize {name}"

    def test_stable_output(self):
        obj = {"a": [1.5, {"b": None, "c": True}], "d": "x"}
        assert dumps_json(obj) == dumps_json(obj)

    @pytest.mark.parametrize("text", [
        "", "plain", 'say "hi"', "back\\slash\\", "tab\tnew\nline\rcr",
        "".join(chr(c) for c in range(32)) + "\x7f", "Kähler ℂP² × S³", "emoji \U0001f600",
        "\ud800 lone surrogate", "/slash/",
    ])
    def test_strings_and_keys_escaped_as_json_dumps(self, text):
        assert dumps_json(text) == json.dumps(text)
        assert dumps_json({text: [text]}) == json.dumps({text: [text]}, indent=2)


class TestCliCommands:
    def test_classify_line_alpha(self):
        proc = run_cli(["classify", str(DESCRIPTORS / "s3xr.json"), "--alpha", "line"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        entry = report["classifications"][0]
        assert entry["alpha"] == 4.5
        assert entry["verdict"] == "nonnegative"

    def test_classify_symbolic_A(self):
        proc = run_cli(["classify", str(DESCRIPTORS / "s2xs2.json"),
                        "--alpha", "A", "--alpha", "5.9"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["classifications"][0]["alpha"] == 6.0
        assert report["classifications"][0]["verdict"] == "nonnegative"
        assert report["classifications"][1]["verdict"] == "neither"

    def test_classify_symbolic_B(self):
        proc = run_cli(["classify", str(DESCRIPTORS / "cp1xcp1.json"), "--alpha", "B"])
        report = json.loads(proc.stdout)
        assert report["classifications"][0]["alpha"] == 7.5
        assert report["classifications"][0]["verdict"] == "nonnegative"

    def test_spectrum_cp1xcp1(self):
        proc = run_cli(["spectrum", str(DESCRIPTORS / "cp1xcp1.json")])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        clusters = [(c["value"], c["multiplicity"]) for c in report["spectrum"]]
        expected = [(-4.0, 1), (0.0, 4), (4.0, 4)]
        assert all(
            m == em and abs(v - ev) <= 1e-9
            for (v, m), (ev, em) in zip(clusters, expected)
        )
        assert report["N"] == 9
        assert sum(c["multiplicity"] for c in report["spectrum"]) == report["N"]

    def test_examples_grid(self, capsys):
        assert run(["examples"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [(f["family"], f["cases_run"]) for f in out["families"]] == [
            ("space-forms", 18), ("complex-space-forms", 18),
            ("sphere-x-sphere", 54), ("hyperbolic-x-hyperbolic", 54),
            ("sphere-x-euclidean", 18), ("hyperbolic-x-euclidean", 18),
            ("sphere-x-hyperbolic", 81), ("cp-x-cp", 54), ("ch-x-ch", 54),
            ("cp-x-complex-euclidean", 18), ("ch-x-complex-euclidean", 18),
            ("cp-x-ch", 81), ("euclidean-flat", 3),
        ]
        assert sum(f["cases_run"] for f in out["families"]) == 489

    def test_spectrum_round_trip_echo(self):
        proc = run_cli(["spectrum", str(DESCRIPTORS / "s3xr.json")])
        report = json.loads(proc.stdout)
        original = parse_descriptor((DESCRIPTORS / "s3xr.json").read_text())
        assert parse_descriptor(json.dumps(report["input"])) == original

    def test_threshold_command(self):
        proc = run_cli(["threshold", str(DESCRIPTORS / "s3xr.json")])
        report = json.loads(proc.stdout)
        assert report["thresholds"]["nonneg"] == pytest.approx(4.5, abs=1e-9)
        assert report["thresholds"]["nonpos"] is None
        assert "spectrum" not in report

    def test_oracle_command(self):
        proc = run_cli(["oracle", str(DESCRIPTORS / "s4.json"),
                        "--alpha", "2.5", "--samples", "25", "--seed", "11"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["consistent"] is True
        assert abs(report["oracle_min"] - report["alpha_sum"]) <= 1e-9

    def test_verify_product_command(self):
        proc = run_cli(["verify", "product",
                        "--file1", str(DESCRIPTORS / "s4.json"),
                        "--file2", str(DESCRIPTORS / "cp2.json")])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "consistent"
        assert report["details"]["zeta_expected"] == -4.5

    def test_verify_line_command(self):
        proc = run_cli(["verify", "line", "--n", "4", "--samples", "5"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "consistent"

    def test_verify_iff_kahler_findings_exit_zero(self):
        proc = run_cli(["verify", "iff-kahler", "--m1", "1", "--m2", "1",
                        "--kappa-grid", "0.5,1"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "consistent"
        assert len(report["findings"]) > 0

    def test_usage_error_exit_2(self):
        proc = run_cli(["classify", str(DESCRIPTORS / "s4.json"), "--alpha", "bogus"])
        assert proc.returncode == 2
        proc = run_cli(["frobnicate"])
        assert proc.returncode == 2

    def test_bad_descriptor_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind":"sphere","dim":1,"kappa":1}')
        proc = run_cli(["spectrum", str(bad)])
        assert proc.returncode == 2
        assert "dim" in proc.stderr

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_oracle_min_is_min_sample_value(self, seed, capsys):
        assert run(["oracle", str(DESCRIPTORS / "s3xr.json"), "--alpha", "2.5",
                    "--samples", "40", "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_min"] == report["min_sample_value"]

    @pytest.mark.parametrize("index,shift", [(-1, -1e-6), (0, 1e-6)],
                             ids=["sample-below-floor", "eigenbasis-off"])
    def test_oracle_inconsistent_samples_exit_1(self, index, shift, monkeypatch, capsys):
        # s3xr's largest |eigenvalue| is 1, so scale is 1: a sample 1e-6
        # below g(alpha) breaks the 1e-8 floor, and an eigenbasis value 1e-6
        # off breaks the 1e-9 match
        real = cli.bruteforce_min_alpha_sum

        def shifted(*args):
            result = real(*args)
            values = list(result.sample_values)
            values[index] = values[0] + shift
            return dataclasses.replace(result, sample_values=tuple(values))

        monkeypatch.setattr(cli, "bruteforce_min_alpha_sum", shifted)
        assert run(["oracle", str(DESCRIPTORS / "s3xr.json"), "--alpha", "2.5",
                    "--samples", "40", "--seed", "5"]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.err == ""
        assert report["consistent"] is False
        eigen_off = abs(report["eigenbasis_value"] - report["alpha_sum"]) > 1e-9
        below_floor = report["oracle_min"] < report["alpha_sum"] - 1e-8
        assert (eigen_off, below_floor) == (index == 0, index == -1)

    def test_verify_samples_above_bound_exit_2_one_line(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AssertionError("sampled before checking the bound")

        monkeypatch.setattr(rigidity, "random_curvature", boom)
        monkeypatch.setattr(rigidity, "spectrum", boom)
        assert run(["verify", "line", "--samples", "100001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 100001 samples exceed the limit 100000\n"

    @pytest.mark.parametrize("argv,unread", [
        (["line", "--file1", "nonexistent.json"], "line parameters: ['file1']"),
        (["iff-kahler", "--file2", "nonexistent.json", "--n", "5"],
         "iff-kahler parameters: ['file2', 'n']"),
        (["product", "--file1", str(DESCRIPTORS / "s4.json"),
          "--file2", str(DESCRIPTORS / "s4.json"), "--n", "7", "--kappa-grid", "1,2"],
         "product parameters: ['grid', 'n']"),
        (["product", "--m1", "2"], "product parameters: ['m1']"),
    ], ids=["line-file1", "iff-kahler-file2-n", "product-n-grid", "product-m1-no-files"])
    def test_unread_verify_flag_exit_2_one_line(self, argv, unread, capsys):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unexpected {unread}\n"

    def test_oracle_samples_above_bound_exit_2_one_line(self):
        proc = run_cli(["oracle", str(DESCRIPTORS / "s4.json"), "--alpha", "2",
                        "--samples", "100000000"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: 100000000 samples exceed the limit 100000\n"

    @pytest.mark.parametrize("text", [
        '{"kind":"sphere","dim":3,"kappa":Infinity}',
        '{"kind":"custom","dim":2,"components":[' + "0," * 15 + "NaN]}",
        '{"kind":"cp","m":1,"kappa":1e400}',
    ], ids=["kappa-infinity", "custom-nan", "kappa-overflow"])
    def test_non_finite_descriptor_exit_2(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = run_cli(["spectrum", str(bad)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("data,cause", [
        (b'\xff\xfe{"kind":"euclidean","dim":2}', "codec can't decode byte 0xff"),
        (b"[" * 100000, "nested too deeply"),
        (b'{"kind":"sphere","dim":3,"kappa":1' + b"0" * 400 + b"}", "overflows"),
        (b'{"kind":"custom","dim":2,"components":[' + b"0," * 15 + b"1" + b"0" * 400 + b"]}",
         "overflows"),
        (b'{"kind":"sphere","dim":3,"kappa":' + b"7" * 5000 + b"}", "overflows"),
    ], ids=["not-utf8", "nested-past-recursion-limit", "int-kappa-overflow",
            "int-component-overflow", "int-past-digit-limit"])
    def test_malformed_file_exit_2_one_line(self, tmp_path, capsys, data, cause):
        # each of these once ended in "internal error:" and exit 3
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert run(["spectrum", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and cause in captured.err
        assert len(captured.err) < 200  # a long number is shortened

    @pytest.mark.parametrize("argv", [
        ["spectrum", '{"kind":"euclidean","dim":10000000}'],
        ["verify", "line", "--n", "200"],
    ], ids=["spectrum-huge-euclidean", "verify-line-n200"])
    def test_dimension_above_bound_exit_2_one_line(self, tmp_path, argv):
        if argv[0] == "spectrum":
            path = tmp_path / "huge.json"
            path.write_text(argv[1])
            argv = ["spectrum", str(path)]
        proc = run_cli(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") and "exceeds the limit" in proc.stderr

    @pytest.mark.parametrize("depth,message", [
        (32, "$.factors: total dimension 33 exceeds the limit 32"),
        (40, "$: products nested more than 32 levels deep exceed the total dimension limit 32"),
        (300, "$: products nested more than 32 levels deep exceed the total dimension limit 32"),
        (490, "$: products nested more than 32 levels deep exceed the total dimension limit 32"),
    ])
    def test_nested_products_exit_2_one_short_line(self, tmp_path, depth, message):
        # the error path once grew by ".factors[0]" per level: 3006 bytes at
        # 300; a fresh process, since a test's deeper stack leaves the JSON
        # decoder fewer levels than the command has
        bad = tmp_path / "nested.json"
        bad.write_text(nested_products(depth))
        proc = run_cli(["spectrum", str(bad)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"
        assert len(proc.stderr.encode()) <= 200

    def test_products_nested_32_levels_are_descended(self):
        # a leaf error under 32 products keeps its full path
        with pytest.raises(DescriptorError) as info:
            parse_descriptor(nested_products(32, '{"kind": "euclidean", "dim": 0}'))
        assert str(info.value) == (
            "$" + ".factors[0]" * 32 + ".dim: euclidean dimension must be at least 1")
        assert parse_descriptor(nested_products(31)).dim == MAX_DIM

    @pytest.mark.parametrize("text", [
        '{"kind":"cp","m":2,"kappa":1e308}',
        '{"kind":"sphere","dim":3,"kappa":1e308}',
    ], ids=["cp-tensor-overflow", "sphere-operator-overflow"])
    def test_overflow_exit_3_one_line(self, tmp_path, text):
        bad = tmp_path / "big.json"
        bad.write_text(text)
        proc = run_cli(["spectrum", str(bad)])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("numeric failure: overflow")

    @pytest.mark.parametrize("path", sorted(DESCRIPTORS.glob("*.json")), ids=lambda p: p.stem)
    def test_oracle_consistent_on_every_descriptor(self, path, capsys):
        assert run(["oracle", str(path), "--alpha", "1.5", "--samples", "130",
                    "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"] is True
        assert abs(report["oracle_min"] - report["alpha_sum"]) <= 1e-9

    def test_lapack_failure_exit_3(self, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert run(["spectrum", str(DESCRIPTORS / "s3xr.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("numeric failure:")

    def test_pinned_overflow_item_raises_no_warning(self, capsys):
        # sample 73 of --seed 0; the Jacobi sweep overflowed on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", "product-kahler", "--m1", "2", "--m2", "2",
                        "--seed", "146", "--samples", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "consistent"

    @pytest.mark.parametrize("argv", [
        ["verify", "line", "--n", "4", "--samples", "3", "--tol", "nan"],
        ["verify", "line", "--n", "4", "--samples", "3", "--tol", "inf"],
        ["verify", "product", "--file1", str(DESCRIPTORS / "s4.json"),
         "--file2", str(DESCRIPTORS / "s4.json"), "--tol", "nan"],
        ["verify", "iff-spheres", "--tol", "nan"],
        ["classify", str(DESCRIPTORS / "s4.json"), "--alpha", "1", "--tol", "nan"],
        ["classify", str(DESCRIPTORS / "s4.json"), "--alpha", "1", "--tol=-inf"],
        ["classify", str(DESCRIPTORS / "custom_flat2.json"), "--alpha", "1", "--tol=-1"],
    ], ids=["line-nan", "line-inf", "product-nan", "iff-spheres-nan", "classify-nan",
            "classify-minus-inf", "classify-negative"])
    def test_non_finite_tol_exit_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: tolerance must be")

    @pytest.mark.parametrize("grid", ["nan,1", "inf,1", "1,-inf"])
    def test_non_finite_kappa_grid_exit_2(self, grid, capsys):
        # inf once ended in a numeric failure (exit 3), nan in a misleading
        # "components must be finite"
        assert run(["verify", "iff-spheres", f"--kappa-grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kappa grid values must be positive and finite\n"

    def test_empty_kappa_grid_exit_2(self, capsys):
        # an empty value once ran the default grid and exited 0
        assert run(["verify", "iff-kahler", "--kappa-grid", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: --kappa-grid must be comma-separated numbers")

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],
        ["classify", str(DESCRIPTORS / "s4.json"), "--alpha", "-inf"],
        ["verify", "line", "--samples", "many"],
    ], ids=["unknown-command", "option-like-value", "bad-int"])
    def test_usage_error_is_one_line(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: secondkind")

    def test_missing_file_exit_2(self):
        proc = run_cli(["spectrum", "/nonexistent/never.json"])
        assert proc.returncode == 2

    def test_symbolic_A_needs_product_exit_2(self):
        proc = run_cli(["classify", str(DESCRIPTORS / "s4.json"), "--alpha", "A"])
        assert proc.returncode == 2

    def test_run_entry_point_direct(self, capsys):
        code = run(["threshold", str(DESCRIPTORS / "s2xs2.json")])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["thresholds"]["nonneg"] == pytest.approx(6.0, abs=1e-9)

    def test_golden_spectrum_report(self):
        proc = run_cli(["spectrum", str(DESCRIPTORS / "s3xr.json")])
        normalized = re.sub(r'"seconds": [0-9.eE+-]+', '"seconds": 0', proc.stdout)
        assert normalized.strip() == (GOLDEN / "spectrum_s3xr.json").read_text().strip()

    def test_golden_oracle_report(self, capsys):
        # byte-stable per numpy/LAPACK build, like spectrum_s3xr.json:
        # argmin_digest hashes the LAPACK eigenbasis, and the other 200
        # samples pin the Philox draws through max_sample_value
        assert run(["oracle", str(DESCRIPTORS / "s3xr.json"), "--alpha", "2.5",
                    "--samples", "200", "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["timing"]
        assert dumps_json(report) + "\n" == (GOLDEN / "oracle_s3xr.json").read_text()

    @pytest.mark.parametrize("argv", [
        ["line", "--n", "5", "--samples", "20", "--seed", "3"],
        ["product-spheres", "--n1", "2", "--n2", "3", "--samples", "20", "--seed", "3"],
        ["product-kahler", "--m1", "1", "--m2", "2", "--samples", "10", "--seed", "3"],
        ["iff-spheres", "--n1", "2", "--n2", "3", "--kappa-grid", "0.5,1,2"],
        ["iff-kahler", "--m1", "1", "--m2", "2", "--kappa-grid", "0.5,1,2"],
    ], ids=lambda argv: argv[0])
    def test_golden_harness_report(self, argv, capsys):
        # recorded before the harnesses became rows of one table, at sizes
        # whose factors differ so that a swap of the two factors shows;
        # byte-stable per numpy/LAPACK build, like spectrum_s3xr.json
        assert run(["verify", *argv]) == 0
        golden = GOLDEN / f"verify_{argv[0].replace('-', '_')}.json"
        assert capsys.readouterr().out == golden.read_text()


def without_timing(text):
    report = json.loads(text)
    report.pop("timing")
    return report


class TestSharedParser:
    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        counts = []
        for argv in (["threshold", str(DESCRIPTORS / "s4.json")],
                     ["spectrum", str(DESCRIPTORS / "s2xs2.json")],
                     ["frobnicate"]):
            before = len(built)
            run(argv)
            counts.append(len(built) - before)
        assert counts == [7, 0, 0]  # the parser and its six subparsers

    def test_repeated_option_does_not_carry_over(self, capsys):
        s4 = str(DESCRIPTORS / "s4.json")
        assert run(["classify", s4, "--alpha", "1.5", "--alpha", "3"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(["classify", s4, "--alpha", "2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert [c["requested"] for c in first["classifications"]] == ["1.5", "3"]
        assert [c["requested"] for c in second["classifications"]] == ["2"]

    def test_usage_error_then_valid_command(self, capsys):
        argv = ["spectrum", str(DESCRIPTORS / "cp1xcp1.json")]
        assert run(["spectrum"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert run(argv) == 0
        captured = capsys.readouterr()
        fresh = run_cli(argv)
        assert fresh.returncode == 0 and captured.err == fresh.stderr == ""
        assert without_timing(captured.out) == without_timing(fresh.stdout)


class TestSpectrumRequest:
    # spectrum and classify print the clusters; threshold never reads them
    @pytest.mark.parametrize("command,clusterings", [
        ("spectrum", 1), ("threshold", 0), ("classify", 1),
    ], ids=["spectrum", "threshold", "classify"])
    def test_clusters_once_per_request(self, command, clusterings, monkeypatch, capsys):
        calls = []
        cluster = cli.cluster_spectrum

        def counting(values):
            calls.append(len(values))
            return cluster(values)

        monkeypatch.setattr(cli, "cluster_spectrum", counting)
        for name in ("s3xr", "cp1xcp1", "h3xh3", "custom_flat2"):
            argv = [command, str(DESCRIPTORS / f"{name}.json")]
            if command == "classify":
                argv += ["--alpha", "1.5"]
            before = len(calls)
            assert run(argv) == 0
            assert len(calls) - before == clusterings, name
        capsys.readouterr()


class TestInternalError:
    def test_unexpected_exception_is_one_line_exit_3(self, monkeypatch, capsys):
        def boom(tensor):
            raise RuntimeError("injected\nsecond line")

        monkeypatch.setattr(cli, "spectrum", boom)
        assert run(["spectrum", str(DESCRIPTORS / "s4.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: injected second line\n"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_propagate(self, exc, monkeypatch):
        def boom(tensor):
            raise exc()

        monkeypatch.setattr(cli, "spectrum", boom)
        with pytest.raises(exc):
            run(["spectrum", str(DESCRIPTORS / "s4.json")])

    def test_command_function_raising_in_subprocess(self):
        # the parser is built on the first run, so it binds the patched command
        code = (
            "import sys\n"
            "from secondkind import cli\n"
            "def boom(args):\n"
            "    raise KeyError('injected')\n"
            "cli._cmd_spectrum = boom\n"
            "sys.exit(cli.run(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "spectrum", str(DESCRIPTORS / "s4.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "internal error: KeyError: 'injected'\n"

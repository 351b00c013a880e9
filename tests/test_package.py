import ast
import json
import math
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import secondkind
from secondkind import descriptors, operator2k
from secondkind.curvature import CurvatureTensor
from secondkind.errors import InvalidInputError

README = Path(__file__).resolve().parents[1] / "README.md"

# the README's Library example
PUBLIC_NAMES = {
    "space_form", "kahler_space_form", "flat_tensor", "product",
    "spectrum", "classify", "verdict", "nonneg_threshold", "a_const",
}


def library_block():
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_package_namespace_is_the_documented_names():
    names = {name for name, value in vars(secondkind).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_readme_library_example_runs_as_commented():
    code = library_block()
    namespace = {}
    exec(code, namespace)
    s = namespace["s"]
    assert "# ascending eigenvalues -0.5; 0 x3; 1 x5" in code
    assert type(s) is np.ndarray and s.shape == (9,)
    assert s.tolist() == pytest.approx([-0.5] + [0.0] * 3 + [1.0] * 5, abs=1e-12)
    assert "# 4.5 == a_const(3, 1)" in code
    assert namespace["nonneg_threshold"](s) == pytest.approx(4.5, abs=1e-12)
    assert namespace["a_const"](3, 1) == 4.5
    assert '# "nonnegative"' in code
    assert namespace["classify"](namespace["line"], 4.5) == "nonnegative"
    assert namespace["verdict"](s, 4.5) == "nonnegative"
    assert "# CP^1 of holomorphic curvature 4: the 2-sphere space_form(2, 4.0)" in code
    cp1 = namespace["cp1"]
    assert isinstance(cp1, CurvatureTensor)
    sphere = namespace["space_form"](2, 4.0)
    assert np.abs(cp1.components - sphere.components).max() <= 1e-12


def test_readme_library_imports_exactly_the_namespace():
    imported = re.search(r"from secondkind import \((.*?)\)", library_block(), re.S).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} == PUBLIC_NAMES
    assert re.search(r"The\s+nine\s+names\s+above\s+are\s+the\s+package\s+namespace\.",
                     README.read_text())


def test_numpy_random_is_imported_on_the_first_draw_only():
    # the shared Philox generator is built by the first seeded draw, so
    # start-up and the commands that draw nothing never import numpy.random
    s4 = Path(__file__).resolve().parents[1] / "descriptors" / "s4.json"
    code = (
        "import contextlib, io, sys\n"
        "import secondkind.cli as cli\n"
        "loaded = ['numpy.random' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['spectrum', {str(s4)!r}]) == 0\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "    assert cli.run(['verify', 'line', '--samples', '1']) == 0\n"
        "loaded.append('numpy.random' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, True]\n"


def test_hashlib_is_imported_by_the_oracle_only():
    # only the oracle hashes a basis, so start-up and a spectrum request
    # never import hashlib
    s4 = Path(__file__).resolve().parents[1] / "descriptors" / "s4.json"
    code = (
        "import contextlib, io, sys\n"
        "import secondkind.cli as cli\n"
        "loaded = ['hashlib' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['spectrum', {str(s4)!r}]) == 0\n"
        "    loaded.append('hashlib' in sys.modules)\n"
        f"    assert cli.run(['oracle', {str(s4)!r}, '--alpha', '2', '--samples', '3']) == 0\n"
        "loaded.append('hashlib' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, True]\n"


def test_fractions_is_imported_by_the_iff_sweeps_only():
    # the iff sweeps build their exact forms in Fraction, so start-up and
    # every other command never import fractions
    s4 = Path(__file__).resolve().parents[1] / "descriptors" / "s4.json"
    code = (
        "import contextlib, io, sys\n"
        "import secondkind.cli as cli\n"
        "loaded = ['fractions' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['spectrum', {str(s4)!r}]) == 0\n"
        "    assert cli.run(['verify', 'product-kahler', '--samples', '3']) == 0\n"
        "    loaded.append('fractions' in sys.modules)\n"
        "    assert cli.run(['verify', 'iff-spheres']) == 0\n"
        "loaded.append('fractions' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, True]\n"


PACKAGE = Path(secondkind.__file__).resolve().parent
CLOSED_FORMS = ("a_const", "b_const", "leaf_closed_form", "product_closed_form",
                "closed_form_clusters")


def test_descriptors_alone_states_the_closed_forms():
    # the leaf spectra, the Einstein product rule and the constants A and B
    # have one owner, which imports neither the operator nor its users
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "descriptors.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``from . import cli`` names the module among the aliases
            imported.update(alias.name for alias in node.names)
            imported.add(getattr(node, "module", None) or "")
    assert not {part for name in imported for part in name.split(".")} & {
        "operator2k", "rigidity", "cli"}, imported
    for path in PACKAGE.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)}
        assert bool(defined & set(CLOSED_FORMS)) == (path.stem == "descriptors"), path.stem
    for name in CLOSED_FORMS:
        assert getattr(descriptors, name).__module__ == "secondkind.descriptors"
    assert secondkind.a_const is descriptors.a_const
    assert not hasattr(operator2k, "einstein_product_eigenvalues")


@pytest.mark.parametrize("threshold", [secondkind.nonneg_threshold, operator2k.nonpos_threshold])
def test_threshold_of_no_eigenvalues_is_an_input_error(threshold):
    for empty in ([], np.array([])):
        with pytest.raises(InvalidInputError, match="^a threshold needs at least one eigenvalue$"):
            threshold(empty)


@pytest.mark.parametrize("threshold", [secondkind.nonneg_threshold, operator2k.nonpos_threshold])
def test_threshold_of_a_matrix_is_an_input_error(threshold):
    # the lists are read as they are, so their entries fail in the scan
    for values in (np.zeros((2, 2)), np.float64(1.0), [[-1.0, 2.0]], ["a"], [-1.0, "a"],
                   [np.array([-1.0, 2.0])]):
        with pytest.raises(InvalidInputError, match="^expected a 1-D list of eigenvalues"):
            threshold(values)


@pytest.mark.parametrize("threshold,values", [
    (secondkind.nonneg_threshold, [math.nan, 1.0]),
    (operator2k.nonpos_threshold, [math.nan, 1.0]),
    (secondkind.nonneg_threshold, [-1.0, math.inf]),
    (secondkind.nonneg_threshold, np.array([math.nan, 1.0])),
    (secondkind.nonneg_threshold, [1.0, math.nan]),
    (secondkind.nonneg_threshold, [math.inf]),
    (operator2k.nonpos_threshold, [-math.inf]),
], ids=["nonneg-nan", "nonpos-nan", "nonneg-inf", "nonneg-nan-array", "nonneg-nan-last",
        "nonneg-inf-only", "nonpos-minus-inf-only"])
def test_threshold_of_a_non_finite_eigenvalue_is_an_input_error(threshold, values):
    # once None, None, 1.0 (though g(1) = -1), None, and 1.0 for the last three
    with pytest.raises(InvalidInputError, match="^eigenvalues must be finite$"):
        threshold(values)


def test_verdict_reads_a_list_as_weighted_partial_sums_do():
    assert operator2k.weighted_partial_sums([1.0, 2.0], 1.5) == 2.0
    assert secondkind.verdict([1.0, 2.0], 1.5) == "nonnegative"
    assert secondkind.verdict([-2.0, 3.0], 1.5) == "neither"
    assert secondkind.verdict([[1.0, 2.0], [-2.0, -1.0]], 2) == ["nonnegative", "nonpositive"]
    for s, alpha, message in (([[1.0, 2.0], [3.0]], 1.0, "^expected real numbers in rows"),
                              (["a"], 1.0, "^expected real numbers in rows"),
                              ([1.0, 2.0], "x", "^alpha must be a real number, got str$"),
                              # the first once read as "neither"
                              ([math.nan, 1.0], 1.5, "^eigenvalues must be finite$"),
                              ([-1.0, math.inf], 1.5, "^eigenvalues must be finite$"),
                              ([[0.0, 1.0], [1.0, math.nan]], 1.5,
                               "^eigenvalues must be finite$")):
        with pytest.raises(InvalidInputError, match=message):
            secondkind.verdict(s, alpha)
    with pytest.raises(InvalidInputError, match="^tolerance must be a real number, got str$"):
        secondkind.verdict([1.0, 2.0], 1.0, "x")
    with pytest.raises(InvalidInputError, match="^expected real numbers in rows"):
        operator2k.weighted_partial_sums(["a"], 1.0)


def test_a_number_beyond_the_doubles_is_read_as_inf():
    with pytest.raises(InvalidInputError, match=r"^alpha must lie in \[1, 2\], got inf$"):
        secondkind.verdict([1.0, 2.0], 10 ** 400)
    with pytest.raises(InvalidInputError,
                       match="^tolerance must be nonnegative and finite, got -inf$"):
        secondkind.verdict([1.0, 2.0], 1.0, -10 ** 400)


@pytest.mark.parametrize("const,args", [
    (secondkind.a_const, (2.5, 1)), (secondkind.a_const, (True, 1)),
    (secondkind.a_const, (3, np.int64(1))), (descriptors.b_const, (1.5, 1)),
    (descriptors.b_const, (1, False)), (descriptors.b_const, (np.int32(2), 2)),
], ids=["a-float", "a-bool", "a-numpy", "b-float", "b-bool", "b-numpy"])
def test_constants_take_integer_sizes_only(const, args):
    with pytest.raises(InvalidInputError, match=r"^[nm][12] must be an integer, got "):
        const(*args)


@pytest.mark.parametrize("const,args", [
    (secondkind.a_const, (10 ** 400, 1)), (descriptors.b_const, (10 ** 400, 1)),
    (descriptors.b_const, (9 * 10 ** 153, 9 * 10 ** 153)),
], ids=["a-overflows", "b-overflows", "b-rounds-to-inf"])
def test_constants_that_overflow_a_double_are_input_errors(const, args):
    with pytest.raises(InvalidInputError,
                       match="^factor dimensions too large: the constant overflows a double$"):
        const(*args)
    assert const(*args, Fraction(1)) > 10 ** 300  # exact, so never too large


@pytest.mark.parametrize("script", ["line_trace.py", "seeded_outputs.py"])
def test_scripts_without_the_package_on_the_path_fail_in_one_line(script, tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    proc = subprocess.run([sys.executable, str(path), str(tmp_path / "out.json")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"{script}: cannot import secondkind; run it with PYTHONPATH=src\n"


def _record(argv, code=0, stdout=None, text="", stderr=""):
    """A record of ``scripts/seeded_outputs.py``."""
    return {"argv": argv, "exit": code, "stdout": stdout, "stdout_text": text, "stderr": stderr}


def _diff_outputs(tmp_path, old, new):
    paths = []
    for name, records in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        if records is not None:
            paths[-1].write_text(json.dumps(records))
    script = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"
    return subprocess.run([sys.executable, str(script), *map(str, paths)],
                          capture_output=True, text=True)


def test_diff_outputs_names_each_record_that_differs(tmp_path):
    old = [_record("verify line", stdout={"a": 1}, text="{}"), _record("spectrum s4.json"),
           _record("verify iff-spheres", code=3, stderr="numeric failure: x\n"),
           _record("examples", text="1")]
    new = [_record("verify line", stdout={"a": 1}, text="{}"), _record("spectrum s4.json"),
           _record("verify iff-spheres", stdout={"findings": []}), _record("examples", text="2")]
    proc = _diff_outputs(tmp_path, old, new)
    assert proc.returncode == 1
    assert proc.stdout == ("verify iff-spheres: exit, stdout, stderr\n"
                           "examples: stdout\n"
                           "2 of 4 records differ\n")
    same = _diff_outputs(tmp_path, old, old)
    assert (same.returncode, same.stdout, same.stderr) == (0, "0 of 4 records differ\n", "")


@pytest.mark.parametrize("new,message", [
    ([_record("verify line")], "the two files hold different command lists"),
    ([_record("verify line"), _record("examples")], "the two files hold different command lists"),
    (None, "cannot read"),
], ids=["other-command", "more-commands", "missing-file"])
def test_diff_outputs_fails_on_other_commands_or_a_missing_file(tmp_path, new, message):
    proc = _diff_outputs(tmp_path, [_record("examples")], new)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"diff_outputs.py: {message}")
    assert proc.stderr.count("\n") == 1

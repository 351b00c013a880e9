import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import secondkind
from secondkind.curvature import CurvatureTensor

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

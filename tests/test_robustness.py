"""Robustness of the command line over generated descriptors and arguments.

Every descriptor kind, nested products, dimensions 0..4 per factor and sizes
over the bound on the total dimension, finite curvature scales from 1e-300
to 1e300, wrong types, booleans and missing or extra fields go through
``cli.run`` in-process; ``--alpha`` and ``--tol`` tokens include ``nan``,
``inf`` and negative values. Whatever the input, the command must end with
a documented exit code (0, or 2/3 with exactly one stderr line), never with
an exception, and print nothing to stderr on success. A second test draws
only well-formed commands, which must not end in a usage error, so that the
numerics are reached at every scale. Factors stay at most 4-dimensional and
products at most three leaves, because tensors have n**4 entries; only the
malformed descriptors draw the larger sizes, a leaf over half the bound and
leaves over the bound itself.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from secondkind.cli import run
from secondkind.curvature import MAX_DIM, random_curvature

SCALES = st.floats(min_value=1e-300, max_value=1e300)
WRONG_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.just([]), st.just({}),
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 6),
)
NUMBER_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-9", "-1e-9", "1e308"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# every descriptor below has N >= 2, so alpha in [1, 2] and "line" apply
VALID_ALPHAS = st.one_of(st.just("line"), st.floats(min_value=1, max_value=2).map(repr))
ALPHA_TOKENS = st.one_of(VALID_ALPHAS, st.sampled_from(["A", "B", "bogus"]),
                         st.floats(min_value=-2, max_value=90).map(repr), NUMBER_TOKENS)
# sizes over the bound: a leaf of more than half of it, which only a product
# exceeds, and leaves over it; custom tensors take only the latter
OVER_BOUND_DIMS = st.sampled_from([MAX_DIM + 1, 10**7])
LARGE_DIMS = st.one_of(st.just(MAX_DIM // 2 + 1), OVER_BOUND_DIMS)
LARGE_COMPLEX_DIMS = st.sampled_from([MAX_DIM // 4 + 1, MAX_DIM // 2 + 1, 10**7])
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def custom_leaf(draw, valid):
    dim = draw(st.integers(2, 4) if valid else st.one_of(st.integers(0, 4), OVER_BOUND_DIMS))
    if dim > MAX_DIM:
        # rejected before the components are read
        return {"kind": "custom", "dim": dim, "components": []}
    if valid or (dim >= 2 and draw(st.booleans())):
        # a valid tensor at an extreme scale
        scale = draw(SCALES) * draw(st.sampled_from([1.0, -1.0]))
        base = random_curvature(dim, draw(st.integers(0, 2**64 - 1)))
        components = [scale * v for v in base.components.ravel().tolist()]
    else:
        # zeros, possibly of the wrong length, with one drawn entry
        size = draw(st.sampled_from([dim ** 4, max(dim ** 4 - 1, 0), dim ** 4 + 1]))
        components = [0.0] * size
        if size:
            value = st.one_of(SCALES, SCALES.map(lambda v: -v), WRONG_VALUES)
            components[draw(st.integers(0, size - 1))] = draw(value)
    return {"kind": "custom", "dim": dim, "components": components}


@st.composite
def corrupted(draw, obj):
    """The descriptor as is, or with one field given a wrong value, dropped,
    or joined by an extra field."""
    how = draw(st.sampled_from(["keep", "wrong", "drop", "extra"]))
    if how == "keep":
        return obj
    obj = dict(obj)
    key = draw(st.sampled_from(sorted(obj)))
    if how == "wrong":
        obj[key] = draw(WRONG_VALUES)
    elif how == "drop":
        del obj[key]
    else:
        obj[draw(st.sampled_from(["extra", "dim", "m", "kappa"]))] = draw(WRONG_VALUES)
    return obj


def descriptors(valid):
    dims = st.integers(2, 4) if valid else st.one_of(st.integers(0, 4), LARGE_DIMS)
    complex_dims = st.integers(1, 2) if valid else st.one_of(st.integers(0, 2),
                                                             LARGE_COMPLEX_DIMS)
    leaves = st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["sphere", "hyperbolic"]),
                               "dim": dims, "kappa": SCALES}),
        st.fixed_dictionaries({"kind": st.just("euclidean"), "dim": dims}),
        st.fixed_dictionaries({"kind": st.sampled_from(["cp", "ch"]),
                               "m": complex_dims, "kappa": SCALES}),
        st.fixed_dictionaries({"kind": st.just("complex_euclidean"), "m": complex_dims}),
        custom_leaf(valid),
    )
    if not valid:
        leaves = leaves.flatmap(corrupted)

    def products(children):
        made = st.lists(children, min_size=2, max_size=3).map(
            lambda factors: {"kind": "product", "factors": factors})
        return made if valid else made.flatmap(corrupted)

    return st.recursive(leaves, products, max_leaves=3)


ANY_DESCRIPTORS = descriptors(valid=False)
VALID_DESCRIPTORS = descriptors(valid=True)


@st.composite
def option(draw, name, tokens):
    """``--name token`` or ``--name=token``; only the second form passes a
    token such as ``-inf`` or ``-1e-05``, which argparse takes for an option."""
    token = draw(tokens)
    return [f"{name}={token}"] if draw(st.booleans()) else [name, token]


@st.composite
def invocations(draw, valid):
    command = draw(st.sampled_from(["spectrum", "threshold", "classify", "oracle"]))
    alphas = VALID_ALPHAS if valid else ALPHA_TOKENS
    options = []
    if command == "classify":
        for _ in range(draw(st.integers(1, 2))):
            options += draw(option("--alpha", alphas))
        if draw(st.booleans()):
            tol = st.floats(0, 1).map(repr) if valid else NUMBER_TOKENS
            options += draw(option("--tol", tol))
    elif command == "oracle":
        options += draw(option("--alpha", alphas))
        options += ["--samples", str(draw(st.integers(1 if valid else -1, 4))),
                    "--seed", str(draw(st.integers(-2**70, 2**70)))]
    return command, draw(VALID_DESCRIPTORS if valid else ANY_DESCRIPTORS), options


@pytest.fixture(scope="module")
def descriptor_path(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness") / "descriptor.json"


def run_in_process(path, invocation):
    """Exit code, stdout and stderr lines of one command; a warning counts as
    a stderr line, since a fresh process would print it there."""
    command, descriptor, options = invocation
    path.write_text(json.dumps(descriptor))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run([command, str(path), *options])
    return code, out.getvalue(), err.getvalue().splitlines() + [str(w.message) for w in caught]


def assert_clean_ending(code, out, err_lines):
    assert code in (0, 2, 3), (code, err_lines)
    if code == 0:
        assert err_lines == []
        json.loads(out)
    else:
        assert len(err_lines) == 1, err_lines
        assert not err_lines[0].startswith("internal error:"), err_lines
        assert out == ""


@given(invocation=invocations(valid=False))
@SETTINGS
def test_any_command_ends_with_documented_exit(descriptor_path, invocation):
    assert_clean_ending(*run_in_process(descriptor_path, invocation))


@given(invocation=invocations(valid=True))
@SETTINGS
def test_well_formed_command_succeeds_or_fails_numerically(descriptor_path, invocation):
    code, out, err_lines = run_in_process(descriptor_path, invocation)
    assert_clean_ending(code, out, err_lines)
    assert code != 2, err_lines

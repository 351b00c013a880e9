"""The spectra checked exactly by the inertia of the rational operator
(``exact``), with no float and no LAPACK on the way: at each value of a
leaf's closed form and of the Einstein product rule of ``descriptors``, over
the ``examples`` families up to N = 20, it counts the multiplicity; at the
sharp constants A and B - 3/2 of the model products g(alpha) is exactly 0;
and LAPACK's eigenvalues of seeded random tensors lie within a stated
bound of the exact ones."""

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from secondkind import cli, descriptors, operator2k, sym2

import exact
from samples import random_kahler_tensor, random_tensor

# each product as its two factors' (kind, size)
PRODUCTS = {
    "s2xs3": (("sphere", 2), ("sphere", 3)),
    "s3xr": (("sphere", 3), ("euclidean", 1)),
    "s2xh2": (("sphere", 2), ("hyperbolic", 2)),
    "cp1xcp2": (("cp", 1), ("cp", 2)),
    "cp1xch1": (("cp", 1), ("ch", 1)),
}
KAPPAS = {"1,1": (1, 1), "1/2,2": (Fraction(1, 2), 2), "2,1/2": (2, Fraction(1, 2))}


def product_obj(factors, kappas):
    """JSON form of the product of two model leaves ``(kind, size)`` of
    curvatures ``kappas``."""
    return {"kind": "product", "factors": [
        descriptors.leaf_obj(kind, size, None if kind in descriptors.FLAT_KINDS else float(k))
        for (kind, size), k in zip(factors, kappas)]}


def certified_clusters(obj):
    """The closed-form (value, multiplicity) clusters of a model leaf or of a
    product of two, given as JSON, ascending and merged, in ``Fraction``,
    each certified by the exact inertia of its rational operator; and that
    operator as its pencil (A, G)."""
    desc = descriptors.parse_descriptor(json.dumps(obj))
    a, gram = exact.rational_operator(descriptors.build_tensor(desc).components)
    assert len(a) == len(gram) == sym2.sym2_dim(desc.dim)
    leaves = [descriptors.leaf_closed_form(f.kind, f.dim, Fraction(f.kappa))
              for f in desc.factors or (desc,)]
    multiplicity = Counter()
    for value, mult in descriptors.product_closed_form(*leaves) if desc.factors else leaves[0][0]:
        assert type(value) is Fraction
        multiplicity[value] += mult
    clusters = sorted((v, mult) for v, mult in multiplicity.items() if mult)
    below = 0
    for value, at in clusters:
        assert exact.inertia(a, gram, value) == (below, at, len(a) - below - at)
        below += at
    assert below == len(a)
    return clusters, (a, gram)


@pytest.mark.parametrize("kappas", KAPPAS.values(), ids=KAPPAS)
@pytest.mark.parametrize("factors", PRODUCTS.values(), ids=PRODUCTS)
def test_product_rule_is_the_exact_inertia(factors, kappas):
    certified_clusters(product_obj(factors, kappas))


def _leaf_id(obj):
    size = obj.get("dim", obj.get("m"))
    return f"{obj['kind']}{size}" + (f"@{obj['kappa']}" if "kappa" in obj else "")


# the cases of every other ``examples`` family, at its curvatures 1/2, 1 and
# 2, whose operator is at most N = 20 wide (total dimension at most 6)
EXAMPLES = {" x ".join(map(_leaf_id, obj.get("factors", [obj]))): obj
            for name, objs in cli._example_families()
            if name in ("space-forms", "complex-space-forms", "hyperbolic-x-hyperbolic",
                        "sphere-x-euclidean", "hyperbolic-x-euclidean", "ch-x-ch",
                        "cp-x-complex-euclidean", "ch-x-complex-euclidean", "euclidean-flat")
            for obj in objs
            if descriptors.parse_descriptor(json.dumps(obj)).dim <= 6}


@pytest.mark.parametrize("obj", EXAMPLES.values(), ids=EXAMPLES)
def test_examples_closed_form_is_the_exact_inertia(obj, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("reached LAPACK")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, boom)
    certified_clusters(obj)


def exact_g(clusters, alpha):
    """g(alpha) over ascending (value, multiplicity) clusters, exactly: the
    floor(alpha) smallest eigenvalues plus frac(alpha) times the next one."""
    total, left = Fraction(0), Fraction(alpha)
    for value, mult in clusters:
        if left <= 0:
            break
        taken = min(mult, left)
        total += taken * value
        left -= taken
    return total


# the sharp families at kappa = 1 as (n1, n2): the line S^(n-1) x R at
# n = 4..7, whose constant is that of n1 = n - 1 and n2 = 1, and the
# sphere products S^n1 x S^n2
SHARP = {f"s{n - 1}xr": (n - 1, 1) for n in range(4, 8)}
SHARP.update({f"s{n1}xs{n2}": (n1, n2) for n1 in (2, 3, 4) for n2 in (2, 3, 4)})


@pytest.mark.parametrize("n1,n2", SHARP.values(), ids=SHARP)
def test_sharp_constant_is_exactly_the_model_threshold(n1, n2):
    second = ("euclidean", 1) if n2 == 1 else ("sphere", n2)
    clusters, pencil = certified_clusters(product_obj((("sphere", n1), second), (1, 1)))
    alpha = descriptors.a_const(n1, n2, Fraction(1))
    assert type(alpha) is Fraction
    assert exact_g(clusters, alpha) == 0
    # g's slope just below A is the ceil(A)-th smallest eigenvalue; it is
    # positive, so g < 0 there
    below, at, _ = exact.inertia(*pencil, 0)
    assert below + at < math.ceil(alpha)


@pytest.mark.parametrize("m", [1, 2], ids=["cp1xcp1", "cp2xcp2"])
def test_kahler_model_threshold_lies_three_halves_below_b(m):
    clusters, _ = certified_clusters(product_obj((("cp", m), ("cp", m)), (1, 1)))
    constant = descriptors.b_const(m, m, Fraction(1))
    assert exact_g(clusters, constant - Fraction(3, 2)) == 0 < exact_g(clusters, constant)


@pytest.mark.parametrize("a,gram,t,expected", [
    ([[1, 2], [2, 1]], [1, 1], 0, (1, 0, 1)),
    ([[0, 1], [1, 0]], [1, 1], 0, (1, 0, 1)),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [1, 1, 1], 0, (1, 1, 1)),
    ([[0, 0, 3], [0, 0, 0], [3, 0, 0]], [1, 1, 1], 0, (1, 1, 1)),
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [1, 1, 1], 1, (0, 2, 1)),
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [2, 2, 2], 2, (2, 1, 0)),
    ([[6, 0], [0, 6]], [2, 6], 3, (1, 1, 0)),
], ids=["one-by-one", "two-by-two", "zero-rest", "two-by-two-apart", "eigenvalue-1",
        "gram", "pencil"])
def test_inertia_counts_the_pencil_eigenvalues(a, gram, t, expected):
    # the eigenvalues are 3, -1; 1, -1; 1, -1, 0; 3, -3, 0; 4, 1, 1; over
    # G = 2I, 2, 1/2, 1/2; and over G = diag(2, 6), 3 and 1
    assert exact.inertia(a, gram, t) == expected


def test_rational_operator_is_the_assembly_before_normalization():
    # the unit 3-sphere: the operator is the identity on its 5 dimensions
    desc = descriptors.parse_descriptor('{"kind": "sphere", "dim": 3, "kappa": 1}')
    a, gram = exact.rational_operator(descriptors.build_tensor(desc).components)
    assert gram == [2, 2, 2, 2, 6]
    assert a == [[g if i == j else 0 for j in range(5)] for i, g in enumerate(gram)]


# seeded random tensors: real of dimension n = 3, 4, 5 and Kahler of
# complex dimension m = 1, 2 (N = 5, 9, 14, 2 and 9), seeds 11 and 12 each
RANDOM = {f"{label}{size}-seed{seed}": (make, size, seed)
          for label, make, sizes in (("real", random_tensor, (3, 4, 5)),
                                     ("kahler", random_kahler_tensor, (1, 2)))
          for size in sizes for seed in (11, 12)}


@pytest.mark.parametrize("make,size,seed", RANDOM.values(), ids=RANDOM)
def test_lapack_eigenvalues_lie_within_the_stated_bound(make, size, seed):
    # LAPACK's eigenvalues of M lie within p(N) u ||M||_2 of the exact
    # ones, with p(N) <= 28 N and ||M||_2 <= N max|m_ij|, as in
    # ``rigidity._block_verdicts`` with W = N: delta = 28 N u N max|m_ij|,
    # 1.2e-15 to 1.5e-12 here. The exact counts at each computed value
    # +- delta bracket its index, so the exact eigenvalue of that index lies
    # within delta of it. All ten tensors take about 1 s on a 2-core x86
    # machine, three quarters of it at n = 5.
    r = make(size, seed)
    mat = operator2k.operator_matrix(r, sym2.standard_basis(r.dim))
    values = operator2k.spectrum(r).tolist()
    n_values = len(values)
    delta = Fraction(28 * n_values * 2.0 ** -53 * n_values * float(np.abs(mat).max()))
    a, gram = exact.rational_operator(r.components)
    for i, value in enumerate(values):
        below, _, _ = exact.inertia(a, gram, Fraction(value) - delta)
        _, _, above = exact.inertia(a, gram, Fraction(value) + delta)
        assert below <= i < n_values - above

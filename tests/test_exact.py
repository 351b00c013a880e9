"""The Einstein product rule of ``descriptors`` checked exactly: at each
value of the closed form, the inertia of the rational operator (``exact``)
counts its multiplicity, with no float and no LAPACK on the way."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from secondkind import descriptors, sym2

import exact

# each product as its two factors' (kind, size)
PRODUCTS = {
    "s2xs3": (("sphere", 2), ("sphere", 3)),
    "s3xr": (("sphere", 3), ("euclidean", 1)),
    "s2xh2": (("sphere", 2), ("hyperbolic", 2)),
    "cp1xcp2": (("cp", 1), ("cp", 2)),
    "cp1xch1": (("cp", 1), ("ch", 1)),
}
KAPPAS = {"1,1": (1, 1), "1/2,2": (Fraction(1, 2), 2), "2,1/2": (2, Fraction(1, 2))}


@pytest.mark.parametrize("kappas", KAPPAS.values(), ids=KAPPAS)
@pytest.mark.parametrize("factors", PRODUCTS.values(), ids=PRODUCTS)
def test_product_rule_is_the_exact_inertia(factors, kappas):
    objs = [descriptors.leaf_obj(kind, size, None if kind in descriptors.FLAT_KINDS else float(k))
            for (kind, size), k in zip(factors, kappas)]
    desc = descriptors.parse_descriptor(json.dumps({"kind": "product", "factors": objs}))
    a, gram = exact.rational_operator(descriptors.build_tensor(desc).components)
    assert len(a) == len(gram) == sym2.sym2_dim(desc.dim)
    leaves = [descriptors.leaf_closed_form(f.kind, f.dim, Fraction(k))
              for f, k in zip(desc.factors, kappas)]
    multiplicity = Counter()
    for value, mult in descriptors.product_closed_form(*leaves):
        assert type(value) is Fraction
        multiplicity[value] += mult
    below = 0
    for value in sorted(v for v, mult in multiplicity.items() if mult):
        at = multiplicity[value]
        assert exact.inertia(a, gram, value) == (below, at, len(a) - below - at)
        below += at
    assert below == len(a)


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

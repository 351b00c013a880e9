"""Model-space descriptors: JSON schema, tensor construction, and the
closed forms of the model spaces.

A descriptor is a JSON object with a ``kind`` and kind-specific fields, of
total dimension at most ``MAX_DIM`` (32), products included:

* ``sphere`` / ``hyperbolic``: ``dim >= 2``, ``kappa > 0`` (the sign of the
  curvature is applied internally for the hyperbolic kind);
* ``euclidean``: ``dim >= 1``;
* ``cp`` / ``ch``: complex dimension ``m >= 1``, ``kappa > 0`` (holomorphic
  sectional curvature ``4 kappa`` resp. ``-4 kappa``);
* ``complex_euclidean``: ``m >= 1``;
* ``product``: ``factors`` list of at least two descriptors;
* ``custom``: ``dim`` and ``components``, a flat list of ``dim**4`` reals
  with the last index fastest; all curvature identities are re-checked.

The six model-space kinds are the rows of one table, ``_LEAVES``, which
parsing, the canonical form, tensor construction and the closed forms read.
The closed forms are stated here alone, in the number type of their input:
each kind's spectrum (``leaf_closed_form``), the Einstein product rule
(``product_closed_form``), their fold, the one Einstein test of a product
(``closed_form_clusters``), and the constants A and B (``a_const``, ``b_const``).
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .curvature import (
    MAX_DIM,
    CurvatureTensor,
    flat_tensor,
    kahler_space_form,
    product,
    space_form,
)
from .errors import InvalidInputError
from .numerics import joins_cluster
from .sym2 import sym2_dim

# One row per model-space kind: the size field (``m`` for the complex kinds,
# whose ``dim`` is ``2m``), its least value and the message when it is
# smaller, and the sign of the curvature, 0 for the flat kinds, which take
# no ``kappa``.
_Leaf = namedtuple("_Leaf", "size least too_small sign")
_LEAVES = {
    "sphere": _Leaf("dim", 2, "sphere/hyperbolic dimension must be at least 2", 1),
    "hyperbolic": _Leaf("dim", 2, "sphere/hyperbolic dimension must be at least 2", -1),
    "euclidean": _Leaf("dim", 1, "euclidean dimension must be at least 1", 0),
    "cp": _Leaf("m", 1, "complex dimension must be at least 1", 1),
    "ch": _Leaf("m", 1, "complex dimension must be at least 1", -1),
    "complex_euclidean": _Leaf("m", 1, "complex dimension must be at least 1", 0),
}

SINGLE_KINDS = tuple(_LEAVES)
COMPLEX_KINDS = tuple(kind for kind, leaf in _LEAVES.items() if leaf.size == "m")
FLAT_KINDS = tuple(kind for kind, leaf in _LEAVES.items() if not leaf.sign)
KINDS = SINGLE_KINDS + ("product", "custom")
# the fields each kind allows
_LEAF_KEYS = {kind: frozenset(("kind", leaf.size) + (("kappa",) if leaf.sign else ()))
              for kind, leaf in _LEAVES.items()}
_PRODUCT_KEYS = frozenset(("kind", "factors"))
_CUSTOM_KEYS = frozenset(("kind", "dim", "components"))


@dataclass(frozen=True)
class ManifoldDescriptor:
    kind: str
    dim: int = 0
    m: int = 0
    kappa: float = 0.0
    factors: tuple = ()
    components: tuple = ()


class DescriptorError(InvalidInputError):
    """Descriptor JSON violates the schema or an invariant."""


def _fail(path, message):
    raise DescriptorError(f"{path}: {message}")


def _require_int(obj, key, path):
    if key not in obj:
        _fail(path, f"missing required field '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", "expected an integer")
    return value


def _require_positive_real(obj, key, path):
    if key not in obj:
        _fail(path, f"missing required field '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", "expected a number")
    if not value > 0:
        _fail(f"{path}.{key}", "must be strictly positive")
    return float(value)


def _bounded_dim(dim, path):
    if dim > MAX_DIM:
        _fail(path, f"total dimension {dim} exceeds the limit {MAX_DIM}")
    return dim


def _check_keys(obj, allowed, path):
    """Reject a field of ``obj`` outside the set ``allowed``."""
    if not obj.keys() <= allowed:
        extra = sorted(obj.keys() - allowed)
        _fail(path, f"unknown field(s) {extra}; allowed: {sorted(allowed)}")


def _from_obj(obj, path, depth=0):
    """Parse the descriptor at ``path``, the factor of ``depth`` enclosing
    products."""
    if not isinstance(obj, dict):
        _fail(path, "descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        _fail(f"{path}.kind", f"expected one of {list(KINDS)}, got {kind!r}")
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        _check_keys(obj, _LEAF_KEYS[kind], path)
        size = _require_int(obj, leaf.size, path)
        if size < leaf.least:
            _fail(f"{path}.{leaf.size}", leaf.too_small)
        dim = 2 * size if leaf.size == "m" else size
        if dim > MAX_DIM:  # the error's path is built only to fail
            _bounded_dim(dim, f"{path}.{leaf.size}")
        kappa = _require_positive_real(obj, "kappa", path) if leaf.sign else 0.0
        if leaf.size == "m":
            return ManifoldDescriptor(kind=kind, m=size, dim=dim, kappa=kappa)
        return ManifoldDescriptor(kind=kind, dim=size, kappa=kappa)
    if kind == "product":
        if depth >= MAX_DIM:
            # every factor has dimension at least 1, so each enclosing
            # product adds one: the whole descriptor exceeds the limit
            _fail("$", f"products nested more than {MAX_DIM} levels deep exceed "
                       f"the total dimension limit {MAX_DIM}")
        _check_keys(obj, _PRODUCT_KEYS, path)
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            _fail(f"{path}.factors", "a product needs a list of at least two factors")
        parsed = tuple(_from_obj(f, f"{path}.factors[{i}]", depth + 1)
                       for i, f in enumerate(factors))
        dim = _bounded_dim(sum(f.dim for f in parsed), f"{path}.factors")
        return ManifoldDescriptor(kind=kind, dim=dim, factors=parsed)
    # custom
    _check_keys(obj, _CUSTOM_KEYS, path)
    dim = _require_int(obj, "dim", path)
    if dim < 1:
        _fail(f"{path}.dim", "dimension must be at least 1")
    _bounded_dim(dim, f"{path}.dim")
    comp = obj.get("components")
    if not isinstance(comp, list):
        _fail(f"{path}.components", "expected a flat list of numbers")
    if len(comp) != dim ** 4:
        _fail(f"{path}.components", f"expected {dim ** 4} entries, got {len(comp)}")
    values = []
    for i, v in enumerate(comp):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(f"{path}.components[{i}]", "expected a number")
        values.append(float(v))
    return ManifoldDescriptor(kind=kind, dim=dim, components=tuple(values))


def _reject_constant(token):
    raise DescriptorError(f"invalid JSON: non-finite number {token} is not allowed")


def _finite_float(token):
    value = float(token)
    if not math.isfinite(value):
        shown = token if len(token) <= 32 else f"{token[:16]}... ({len(token)} characters)"
        raise DescriptorError(f"invalid JSON: number {shown} overflows to a non-finite double")
    return value


def _finite_int(token):
    # a literal that fits a double is far below int()'s digit limit
    _finite_float(token)
    return int(token)


# shared by every call; json.loads(text, **hooks) would build one per call
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float,
                            parse_int=_finite_int)


def parse_descriptor(text):
    """Parse and validate a descriptor from JSON text.

    ``NaN``, ``Infinity`` and number literals that overflow a double are
    rejected here, so no non-finite value reaches a tensor.
    """
    try:
        if text.startswith("\ufeff"):  # rejected as json.loads rejects it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _from_obj(_DECODER.decode(text), "$")
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise DescriptorError("descriptor is nested too deeply to parse") from None


def leaf_obj(kind, size, kappa=None):
    """JSON form of a model space of one kind; ``size`` is its ``dim``, or
    its ``m`` for a complex kind, and a flat kind takes no ``kappa``."""
    obj = {"kind": kind, _LEAVES[kind].size: size}
    if kappa is not None:
        obj["kappa"] = kappa
    return obj


def descriptor_to_obj(desc):
    """Canonical JSON-ready form; parsing it back gives an equal descriptor."""
    leaf = _LEAVES.get(desc.kind)
    if leaf is not None:
        return leaf_obj(desc.kind, getattr(desc, leaf.size), desc.kappa if leaf.sign else None)
    if desc.kind == "product":
        return {"kind": "product", "factors": [descriptor_to_obj(f) for f in desc.factors]}
    return {"kind": "custom", "dim": desc.dim, "components": list(desc.components)}


def build_tensor(desc):
    """Curvature tensor of a descriptor; custom components are re-validated."""
    leaf = _LEAVES.get(desc.kind)
    if leaf is not None:
        if not leaf.sign:
            return flat_tensor(desc.dim)
        if leaf.size == "m":
            return kahler_space_form(desc.m, leaf.sign * desc.kappa)
        return space_form(desc.dim, leaf.sign * desc.kappa)
    if desc.kind == "product":
        return product(*(build_tensor(f) for f in desc.factors))
    comp = np.array(desc.components, dtype=float).reshape((desc.dim,) * 4)
    try:
        return CurvatureTensor(comp)
    except InvalidInputError as exc:
        raise DescriptorError(f"$.components: {exc}") from exc


def _checked_int(name, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return value


def _finite(constant):
    """The value of ``constant()``, where it is below inf: sizes whose
    constant overflows a double, or rounds to inf, are an input error."""
    try:
        value = constant()
        if value < math.inf:
            return value
    except OverflowError:
        pass
    raise InvalidInputError("factor dimensions too large: the constant overflows a double")


def a_const(n1, n2, one=1.0):
    """Optimal threshold constant for products of real factors, in the type
    of ``one``: 1 + n1*n2 + (n1(n2-1) + n2(n1-1)) / (n1+n2)."""
    if _checked_int("n1", n1) < 1 or _checked_int("n2", n2) < 1:
        raise InvalidInputError("factor dimensions must be positive")
    return _finite(lambda: one + n1 * n2 + one * (n1 * (n2 - 1) + n2 * (n1 - 1)) / (n1 + n2))


def b_const(m1, m2, one=1.0):
    """Optimal threshold constant for products of complex factors, in the
    type of ``one``: 4 m1 m2 + 3/2 (m1^2 + m2^2) + m1 m2 / (m1+m2)."""
    if _checked_int("m1", m1) < 1 or _checked_int("m2", m2) < 1:
        raise InvalidInputError("complex factor dimensions must be positive")
    return _finite(lambda: 4 * one * m1 * m2 + 3 * one / 2 * (m1 * m1 + m2 * m2)
                   + one * (m1 * m2) / (m1 + m2))


def leaf_closed_form(kind, dim, kappa):
    """(clusters, rho, dim) of a model space in kappa's number type: its
    (eigenvalue, multiplicity) list, Einstein constant and real dimension. A
    curved complex kind has two clusters and rho = 2(m+1)k, 2m = dim; every
    other kind, C^m included, has one cluster at its curvature k and rho =
    (dim-1)k."""
    leaf = _LEAVES[kind]
    k = leaf.sign * kappa
    if leaf.size == "m" and leaf.sign:
        m = dim // 2
        return [(-2 * k, (m - 1) * (m + 1)), (4 * k, m * (m + 1))], 2 * (m + 1) * k, dim
    return [(k, sym2_dim(dim))], (dim - 1) * k, dim


def product_closed_form(first, second):
    """The Einstein product rule: the (eigenvalue, multiplicity) clusters of
    the product of two Einstein factors given as (clusters, rho, dim)
    triples, in rho1's number type: the factors', 0 (never -0.0) on the
    n1 n2 mixed directions and once zeta = -(n2 rho1 + n1 rho2) / (n1 + n2)."""
    (c1, rho1, n1), (c2, rho2, n2) = first, second
    zeta = -(n2 * rho1 + n1 * rho2) / (n1 + n2)
    return [*c1, *c2, (type(rho1)(0), n1 * n2), (zeta, 1)]


def _closed_form_fold(desc):
    """(clusters, rho, dim) of a descriptor, or None where no closed form
    applies: ``product_closed_form`` folded over a product's factors, as
    long as every partial product along the fold is Einstein: its rho is
    rho1 where ``joins_cluster`` puts rho1 and rho2 in one cluster, else None."""
    if desc.kind in _LEAVES:
        return leaf_closed_form(desc.kind, desc.dim, desc.kappa)
    if desc.kind != "product":
        return None
    parts = [_closed_form_fold(f) for f in desc.factors]
    if any(p is None for p in parts):
        return None
    folded = parts[0]
    for part in parts[1:]:
        (_, rho1, n1), (_, rho2, n2) = folded, part
        if rho1 is None or rho2 is None:
            return None
        joined = joins_cluster(rho2, rho1) if rho2 < rho1 else joins_cluster(rho1, rho2)
        folded = product_closed_form(folded, part), rho1 if joined else None, n1 + n2
    return folded


def closed_form_clusters(desc):
    """Ascending (value, multiplicity) clusters predicted in closed form.

    Covers the single model spaces and every product of them whose partial
    products are Einstein (``product_closed_form``). Returns None otherwise
    (custom tensors, products of mismatched factors). Adjacent values merge
    by the same rule, that of ``cluster_spectrum``, into their running
    weighted mean.
    """
    folded = _closed_form_fold(desc)
    if folded is None:
        return None
    merged, previous = [], None
    for value, mult in sorted((v, m) for v, m in folded[0] if m > 0):
        if merged and joins_cluster(previous, value):
            prev_v, prev_m = merged[-1]
            total = prev_m + mult
            merged[-1] = ((prev_v * prev_m + value * mult) / total, total)
        else:
            merged.append((value, mult))
        previous = value
    return merged

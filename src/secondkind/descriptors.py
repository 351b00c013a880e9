"""Model-space descriptors: JSON schema, tensor construction, and
closed-form spectra.

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

_MERGE_TOL = 1e-9


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
    extra = sorted(set(obj) - set(allowed))
    if extra:
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
        _check_keys(obj, ("kind", leaf.size) + (("kappa",) if leaf.sign else ()), path)
        size = _require_int(obj, leaf.size, path)
        if size < leaf.least:
            _fail(f"{path}.{leaf.size}", leaf.too_small)
        _bounded_dim(2 * size if leaf.size == "m" else size, f"{path}.{leaf.size}")
        kappa = _require_positive_real(obj, "kappa", path) if leaf.sign else 0.0
        if leaf.size == "m":
            return ManifoldDescriptor(kind=kind, m=size, dim=2 * size, kappa=kappa)
        return ManifoldDescriptor(kind=kind, dim=size, kappa=kappa)
    if kind == "product":
        if depth >= MAX_DIM:
            # every factor has dimension at least 1, so each enclosing
            # product adds one: the whole descriptor exceeds the limit
            _fail("$", f"products nested more than {MAX_DIM} levels deep exceed "
                       f"the total dimension limit {MAX_DIM}")
        _check_keys(obj, ("kind", "factors"), path)
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) < 2:
            _fail(f"{path}.factors", "a product needs a list of at least two factors")
        parsed = tuple(_from_obj(f, f"{path}.factors[{i}]", depth + 1)
                       for i, f in enumerate(factors))
        dim = _bounded_dim(sum(f.dim for f in parsed), f"{path}.factors")
        return ManifoldDescriptor(kind=kind, dim=dim, factors=parsed)
    # custom
    _check_keys(obj, ("kind", "dim", "components"), path)
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


def parse_descriptor(text):
    """Parse and validate a descriptor from JSON text.

    ``NaN``, ``Infinity`` and number literals that overflow a double are
    rejected here, so no non-finite value reaches a tensor.
    """
    try:
        obj = json.loads(text, parse_constant=_reject_constant,
                         parse_float=_finite_float, parse_int=_finite_int)
        return _from_obj(obj, "$")
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


def _leaf_closed_form(desc, leaf):
    """(eigenvalue list, rho) of a model space. A curved complex kind has two
    clusters and rho = 2(m+1)k; every other kind, C^m included, has one
    cluster at its sectional curvature k and rho = (dim-1)k."""
    k = leaf.sign * desc.kappa
    if leaf.size == "m" and leaf.sign:
        m = desc.m
        return [(-2.0 * k, (m - 1) * (m + 1)), (4.0 * k, m * (m + 1))], 2 * (m + 1) * k
    return [(k, sym2_dim(desc.dim))], (desc.dim - 1) * k


def _closed_form_fold(desc):
    """Return (eigenvalue list, rho, dim) or None when no closed form applies.

    Product spectra come from the Einstein product rule: factor eigenvalues,
    zero with multiplicity n1*n2, and the single trace-difference eigenvalue
    -(n2 rho1 + n1 rho2) / (n1 + n2); it applies as long as every partial
    product along the fold is Einstein.
    """
    leaf = _LEAVES.get(desc.kind)
    if leaf is not None:
        return (*_leaf_closed_form(desc, leaf), desc.dim)
    if desc.kind != "product":
        return None
    parts = [_closed_form_fold(f) for f in desc.factors]
    if any(p is None for p in parts):
        return None
    eigs, rho, n = parts[0]
    for eigs2, rho2, n2 in parts[1:]:
        if rho is None or rho2 is None:
            return None
        zeta = -(n2 * rho + n * rho2) / (n + n2)
        eigs = list(eigs) + list(eigs2) + [(0.0, n * n2), (zeta, 1)]
        rho = rho if abs(rho - rho2) <= _MERGE_TOL else None
        n = n + n2
    return eigs, rho, n


def closed_form_clusters(desc):
    """Ascending (value, multiplicity) clusters predicted in closed form.

    Covers the single model spaces and every product of them whose partial
    products are Einstein; returns None otherwise (custom tensors, products
    of mismatched factors).
    """
    folded = _closed_form_fold(desc)
    if folded is None:
        return None
    eigs = sorted((v, m) for v, m in folded[0] if m > 0)
    merged = []
    for value, mult in eigs:
        if merged and value - merged[-1][0] <= _MERGE_TOL * max(1.0, abs(merged[-1][0])):
            prev_v, prev_m = merged[-1]
            total = prev_m + mult
            merged[-1] = ((prev_v * prev_m + value * mult) / total, total)
        else:
            merged.append((value, mult))
    return merged

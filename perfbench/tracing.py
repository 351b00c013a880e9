"""In-memory layer spans around the public functions of ``secondkind``.

Each layer function is looked up in its home module and then replaced, by
identity, in every ``secondkind.*`` module namespace that binds it (for
example ``spectrum`` is bound in both ``operator2k`` and ``rigidity``), so a
call is traced no matter which module makes it. A function that no longer
exists is reported as an absent layer instead of failing the run, so the
benchmark keeps working when a later change removes or renames a function.
Calls made through references held in data structures (tables of functions,
closures) are not traced; their time shows as the caller's self time.

``numpy.linalg.eigh``/``eigvalsh`` count as the eigensolve layer, so moving
the spectrum onto LAPACK keeps showing in ``numerics.eigensolve_*``.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _nothing(args, result):
    return {}


def _dim_first(args, result):
    return {"n": int(args[0].dim)}


def _int_first(args, result):
    return {"n": int(args[0])}


def _complex_first(args, result):
    return {"n": 2 * int(args[0])}


def _product(args, result):
    return {"n": int(args[0].dim) + int(args[1].dim)}


def _validate(args, result):
    return {"n": int(np.shape(args[0].components)[0])}


def _matrix(args, result):
    shape = np.shape(args[0])
    big_n = int(shape[-1])
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    return {"N": big_n, "ops": batch * big_n ** 3}


def _assemble(args, result):
    n = int(args[0].dim)
    big_n = int(args[1].count)
    return {"n": n, "N": big_n, "ops": big_n * n ** 4}


def _family(args, result):
    return {"N": int(args[0])}


def _values(args, result):
    return {"N": len(args[0])}


def _basis_pair(args, result):
    return {"n": int(args[0]) + int(args[1])}


def _emitted(args, result):
    return {"bytes": len(result)}


# (layer, home module, attribute path, size extractor). The layer is
# "<module>.<group>"; every function of a layer adds to its self time.
LAYER_FUNCTIONS = (
    ("cli.dispatch", "secondkind.cli", "run", _nothing),
    ("cli.emit", "secondkind.cli", "dumps_json", _emitted),
    ("descriptors.parse", "secondkind.descriptors", "parse_descriptor", _nothing),
    ("descriptors.build", "secondkind.descriptors", "build_tensor", _dim_first),
    ("descriptors.closed_form", "secondkind.descriptors", "closed_form_clusters", _dim_first),
    ("curvature.model", "secondkind.curvature", "space_form", _int_first),
    ("curvature.model", "secondkind.curvature", "flat_tensor", _int_first),
    ("curvature.model", "secondkind.curvature", "kahler_space_form", _complex_first),
    ("curvature.model", "secondkind.curvature", "kahler_model_tensor", _nothing),
    ("curvature.model", "secondkind.curvature", "standard_complex_structure", _complex_first),
    ("curvature.model", "secondkind.curvature", "product", _product),
    ("curvature.random", "secondkind.curvature", "random_curvature", _int_first),
    ("curvature.random", "secondkind.curvature", "random_kahler_curvature", _complex_first),
    ("curvature.validate", "secondkind.curvature", "CurvatureTensor.__post_init__", _validate),
    ("curvature.detect", "secondkind.curvature", "ricci", _dim_first),
    ("curvature.detect", "secondkind.curvature", "scalar", _dim_first),
    ("curvature.detect", "secondkind.curvature", "einstein_constant", _dim_first),
    ("curvature.detect", "secondkind.curvature", "constant_sectional", _dim_first),
    ("curvature.detect", "secondkind.curvature", "constant_holomorphic", _dim_first),
    ("sym2.basis", "secondkind.sym2", "standard_basis", _int_first),
    ("sym2.basis", "secondkind.sym2", "product_adapted_basis", _basis_pair),
    ("sym2.basis", "secondkind.sym2", "empty_basis", _int_first),
    ("sym2.basis", "secondkind.sym2", "kahler_basis", _complex_first),
    ("operator2k.assemble", "secondkind.operator2k", "operator_matrix", _assemble),
    ("operator2k.spectrum", "secondkind.operator2k", "spectrum", _dim_first),
    ("operator2k.threshold", "secondkind.operator2k", "alpha_sum", _nothing),
    ("operator2k.threshold", "secondkind.operator2k", "classify", _dim_first),
    ("operator2k.threshold", "secondkind.operator2k", "nonneg_threshold", _nothing),
    ("operator2k.threshold", "secondkind.operator2k", "nonpos_threshold", _nothing),
    ("operator2k.threshold", "secondkind.operator2k", "negate_spectrum", _nothing),
    ("operator2k.threshold", "secondkind.operator2k", "spectrum_from_eigenvalues", _nothing),
    ("operator2k.oracle", "secondkind.operator2k", "bruteforce_min_alpha_sum", _dim_first),
    ("numerics.eigensolve", "secondkind.numerics", "jacobi_eigen", _matrix),
    ("numerics.eigensolve", "numpy.linalg", "eigh", _matrix),
    ("numerics.eigensolve", "numpy.linalg", "eigvalsh", _matrix),
    ("numerics.sample", "secondkind.numerics", "random_orthonormal_family", _family),
    ("numerics.cluster", "secondkind.numerics", "cluster_spectrum", _values),
    ("rigidity.harness", "secondkind.rigidity", "check_rigidity", _nothing),
    ("rigidity.harness", "secondkind.rigidity", "verify_product_structure", _dim_first),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in LAYER_FUNCTIONS))


def _namespaces(home):
    """Module namespaces that may bind a function defined in ``home``."""
    names = [name for name in list(sys.modules)
             if name == "secondkind" or name.startswith("secondkind.")]
    if not home.startswith("secondkind"):
        names.append(home)
    return [sys.modules[name] for name in names if sys.modules.get(name) is not None]


class Span:
    __slots__ = ("span_id", "parent", "item", "layer", "name", "start", "end",
                 "self_s", "attrs", "child_s", "outermost")


class Tracer:
    """Records one span per call of a layer function while installed."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.absent = []
        self._stack = []
        self._patches = []

    def install(self):
        self.absent = []
        for layer, home, path, sizer in LAYER_FUNCTIONS:
            module = sys.modules.get(home)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{home}.{path}")
                continue
            name = f"{home.rpartition('.')[2]}.{path}"
            wrapper = self._wrap(original, layer, name, sizer)
            if owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for namespace in _namespaces(home):
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer, name, sizer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span()
            parent = stack[-1] if stack else None
            span.span_id = len(tracer.spans)
            span.parent = parent.span_id if parent is not None else None
            span.item = tracer.item
            span.layer = layer
            span.name = name
            span.child_s = 0.0
            span.outermost = parent is None or parent.layer != layer
            tracer.spans.append(span)
            stack.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                duration = span.end - span.start
                span.self_s = duration - span.child_s
                if parent is not None:
                    parent.child_s += duration
                try:
                    span.attrs = sizer(args, result)
                except Exception:  # a changed signature must not fail the run
                    span.attrs = {}

        return traced

    def layer_totals(self, spans, scale):
        """Per-layer self time, times ``scale(item id)``, and outermost
        call count, ops and bytes."""
        totals = {layer: defaultdict(float) for layer in LAYERS}
        for span in spans:
            t = totals[span.layer]
            t["self_s"] += span.self_s * scale(span.item)
            if span.outermost:
                t["calls"] += 1
                t["ops"] += span.attrs.get("ops", 0)
                t["bytes"] += span.attrs.get("bytes", 0)
        return totals

    def size_table(self, spans, scale):
        """Calls and scaled self time per (layer, size) from the n/N attributes."""
        table = defaultdict(lambda: [0, 0.0])
        for span in spans:
            for key in ("n", "N"):
                if key in span.attrs:
                    row = table[(span.layer, key, span.attrs[key])]
                    row[0] += 1
                    row[1] += span.self_s * scale(span.item)
        return table

    def export(self, spans):
        fields = ["id", "parent", "item", "layer", "name", "start", "end", "self_s", "attrs"]
        rows = [[s.span_id, s.parent, s.item, s.layer, s.name, s.start, s.end,
                 s.self_s, s.attrs] for s in spans]
        return {"fields": fields, "spans": rows}

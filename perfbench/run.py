"""Benchmark of the ``secondkind`` command line, run in-process.

    python3 perfbench/run.py --workload zoo --seed 1 --seconds 30 --trace 0

Runs the chosen workload (``zoo``, ``falsify`` or ``oracle``, see
``perfbench/README.md``) through ``secondkind.cli.run`` in passes over a
fixed item list until ``--seconds`` have elapsed, checks every output,
scales item times to a fixed machine speed (``speed.py``), and prints one
line per metric followed, as the last line, by a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
traced and untraced passes alternate and the metrics are per layer.
Results go to ``perfbench/out/``. The source under test is ``src/`` of the
checkout that holds this file; without it the benchmark exits with code 2.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # one benchmark thread: set before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60
MIN_TRACED_PASSES = 2

# Cold start as a user pays it: interpreter, ``import secondkind``, one item.
SETUP_CHILD = """\
import io, json, sys, time, contextlib
t0 = time.perf_counter()
import secondkind.cli
t1 = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = secondkind.cli.run(sys.argv[1:])
print(out.getvalue())
print(json.dumps({"rc": rc, "import_s": t1 - t0}))
"""

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
    "ok_frac": "fraction", "peak_rss_mb": "MB",
}

# per-layer metric -> (layer, field of Tracer.layer_totals, unit)
PER_LAYER = {
    "numerics.eigensolve_s": ("numerics.eigensolve", "self_s", "s"),
    "numerics.eigensolve_calls": ("numerics.eigensolve", "calls", "count"),
    "numerics.eigensolve_ops_computed": ("numerics.eigensolve", "ops", "count"),
    "numerics.sample_s": ("numerics.sample", "self_s", "s"),
    "numerics.sample_calls": ("numerics.sample", "calls", "count"),
    "numerics.cluster_s": ("numerics.cluster", "self_s", "s"),
    "operator2k.assemble_s": ("operator2k.assemble", "self_s", "s"),
    "operator2k.assemble_calls": ("operator2k.assemble", "calls", "count"),
    "operator2k.assemble_ops_computed": ("operator2k.assemble", "ops", "count"),
    "operator2k.spectrum_self_s": ("operator2k.spectrum", "self_s", "s"),
    "operator2k.threshold_s": ("operator2k.threshold", "self_s", "s"),
    "operator2k.oracle_self_s": ("operator2k.oracle", "self_s", "s"),
    "sym2.basis_s": ("sym2.basis", "self_s", "s"),
    "sym2.basis_calls": ("sym2.basis", "calls", "count"),
    "curvature.model_s": ("curvature.model", "self_s", "s"),
    "curvature.random_s": ("curvature.random", "self_s", "s"),
    "curvature.random_calls": ("curvature.random", "calls", "count"),
    "curvature.validate_s": ("curvature.validate", "self_s", "s"),
    "curvature.validate_calls": ("curvature.validate", "calls", "count"),
    "curvature.detect_s": ("curvature.detect", "self_s", "s"),
    "descriptors.parse_s": ("descriptors.parse", "self_s", "s"),
    "descriptors.build_s": ("descriptors.build", "self_s", "s"),
    "descriptors.closed_form_s": ("descriptors.closed_form", "self_s", "s"),
    "rigidity.harness_self_s": ("rigidity.harness", "self_s", "s"),
    "cli.dispatch_s": ("cli.dispatch", "self_s", "s"),
    "cli.emit_s": ("cli.emit", "self_s", "s"),
    "cli.emit_bytes": ("cli.emit", "bytes", "bytes"),
}
OUTPUT_COUNTS = ("rigidity.samples_run", "rigidity.counterexamples", "rigidity.findings")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``secondkind`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "secondkind" / "__init__.py").is_file():
        raise ImportError(f"no secondkind package under {SRC}")
    sys.path.insert(0, str(SRC))
    import secondkind.cli
    if Path(secondkind.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"secondkind was imported from {secondkind.__file__}")
    return secondkind.cli


class ItemResult:
    __slots__ = ("kind", "seconds", "timing", "scale", "ok", "reason", "counts", "warnings",
                 "stderr_bytes")

    @property
    def scaled_s(self):
        return self.seconds * self.scale


def run_item(cli, item, gauge=None, tracer=None, item_id=None):
    """One CLI request with stdout, stderr and warnings captured; failures
    and exceptions are recorded, never raised."""
    out, err = io.StringIO(), io.StringIO()
    result = ItemResult()
    result.kind = item.kind
    result.timing = gauge.refresh() if gauge is not None else None
    result.scale = 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # count every occurrence, not the first
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.item = item_id
            start = time.perf_counter()
            try:
                rc = cli.run(list(item.argv))
            except Exception as exc:  # an item that raises is a failed item
                rc, result.reason = None, f"{type(exc).__name__}: {exc}"
            result.seconds = time.perf_counter() - start
    result.warnings = [(issubclass(w.category, RuntimeWarning), w.category.__name__,
                        Path(w.filename).name, w.lineno, str(w.message)) for w in caught]
    result.stderr_bytes = len(err.getvalue())
    result.ok, result.counts = False, {}
    if rc is not None:
        try:
            outcome = item.check(rc, out.getvalue())
            result.ok, result.counts = outcome.ok, outcome.counts
            result.reason = outcome.reason
        except (ValueError, KeyError, TypeError) as exc:
            result.reason = f"{type(exc).__name__}: {exc}"
    return result


class Pass:
    """One run over the item list."""

    def __init__(self, cli, workload, pass_idx, gauge, tracer=None):
        first_span = len(tracer.spans) if tracer is not None else 0
        start = time.perf_counter()
        self.results = [run_item(cli, item, gauge, tracer, (pass_idx, idx))
                        for idx, item in enumerate(workload.items)]
        self.raw_wall = time.perf_counter() - start
        gauge.refresh(force=True)
        for r in self.results:
            r.scale = gauge.scale(r.timing)
        self.spans = tracer.spans[first_span:] if tracer is not None else []

    @property
    def scaled_s(self):
        """Time to finish the item list, scaled to the reference speed."""
        return sum(r.scaled_s for r in self.results)

    def item_scale(self, item_id):
        return self.results[item_id[1]].scale


def measure_setup(workload):
    """Median wall time of cold interpreter starts that import the package
    and run the warm-up item, and the median import time inside them. Not
    scaled to the kernel: on 5-seed runs that widened the spread of
    ``setup_s`` instead of narrowing it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, imports, failures = [], [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *workload.warmup.argv],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"cold start took over {SETUP_TIMEOUT_S} s")
            continue
        walls.append(time.perf_counter() - start)
        report, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        try:
            info = json.loads(last)
            outcome = workload.warmup.check(info["rc"], report)
            imports.append(info["import_s"])
            if not outcome.ok:
                failures.append(outcome.reason)
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"exit {proc.returncode}: {exc}: {proc.stderr.strip()[-300:]}")
    startup_s = statistics.median(imports) if imports else 0.0
    return (statistics.median(walls) if walls else 0.0), startup_s, failures


def read_git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def solver_backend():
    """Which eigensolver backend the package can use, seen from outside."""
    numerics = sys.modules.get("secondkind.numerics")
    njit = getattr(numerics, "njit", None)
    if njit is None:
        njit_kind = "absent"
    elif getattr(njit, "__module__", "").startswith("numba"):
        njit_kind = "numba"
    else:
        njit_kind = "identity-shim"
    return {"numba_importable": importlib.util.find_spec("numba") is not None,
            "njit": njit_kind}


def provenance(args, workload):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "benchmark_threads": 1,
        "git_commit": read_git_commit(),
        "solver_backend": solver_backend(),
        "items_per_pass": len(workload.items),
        "item_kinds": dict(Counter(item.kind for item in workload.items)),
    }


def percentile(values, pct):
    return float(np.percentile(np.asarray(values), pct))


def count_warnings(results):
    """RuntimeWarnings raised from secondkind.numerics, and all by site."""
    sites = Counter(w for r in results for w in r.warnings)
    numeric = sum(n for (runtime, _, filename, _, _), n in sites.items()
                  if runtime and filename == "numerics.py")
    return numeric, sites


def output_counts(results):
    totals = dict.fromkeys(OUTPUT_COUNTS, 0)
    for r in results:
        for key, value in r.counts.items():
            totals["rigidity." + key] += value
    return totals


def end_to_end(passes, workload, setup_s, rss_mb):
    results = [r for p in passes for r in p.results]
    latencies_ms = [r.scaled_s * 1e3 for r in results]
    raw_ms = [r.seconds * 1e3 for r in results]
    ok = sum(r.ok for r in results)
    tail = workload.tail_pct
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.scaled_s for p in passes),
        "item_p50_ms": percentile(latencies_ms, 50),
        "item_tail_ms": percentile(latencies_ms, tail),
        "ok_frac": ok / len(results),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} cold starts",
        "wall_s": (f"median of {len(passes)} passes of {len(workload.items)} items; "
                   f"unscaled {statistics.median(p.raw_wall for p in passes):.4g} s"),
        "item_p50_ms": f"p50 of {len(results)} items; unscaled {percentile(raw_ms, 50):.4g} ms",
        "item_tail_ms": (f"p{tail:g} of {len(results)} items, "
                         f"{len(results) * (100 - tail) / 100:.1f} beyond; "
                         f"unscaled {percentile(raw_ms, tail):.4g} ms"),
        "ok_frac": f"{ok} of {len(results)} items",
    }
    return metrics, notes


def per_layer(tracer, traced, untraced, startup_s):
    """Per-pass layer metrics: medians over traced passes of scaled times,
    and counts, which repeat exactly from pass to pass."""
    per_pass = []
    for p in traced:
        totals = tracer.layer_totals(p.spans, p.item_scale)
        values = {name: totals[layer][fld] for name, (layer, fld, _) in PER_LAYER.items()}
        values.update(output_counts(p.results))
        values["numerics.runtime_warnings"] = count_warnings(p.results)[0]
        values["trace.unattributed_s"] = p.scaled_s - sum(t["self_s"] for t in totals.values())
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["cli.startup_s"] = startup_s
    metrics["trace.overhead_frac"] = (statistics.median(p.scaled_s for p in traced)
                                      / statistics.median(p.scaled_s for p in untraced) - 1.0)
    units = {name: unit for name, (_, _, unit) in PER_LAYER.items()}
    units.update({name: "count" for name in OUTPUT_COUNTS})
    units.update({"numerics.runtime_warnings": "count", "trace.unattributed_s": "s",
                  "cli.startup_s": "s", "trace.overhead_frac": "fraction"})
    return metrics, units


def size_rows(tracer, traced):
    """Per-pass self time by layer and operand size (ROADMAP's n/N table)."""
    rows = defaultdict(lambda: [0, 0.0])
    for p in traced:
        table = tracer.size_table(p.spans, p.item_scale)
        for key, (calls, self_s) in table.items():
            rows[key][0] += calls
            rows[key][1] += self_s
    count = len(traced)
    return [{"layer": layer, "size": f"{dim}={size}", "calls": calls / count,
             "self_ms_per_pass": self_s * 1e3 / count, "ms_per_call": self_s * 1e3 / calls}
            for (layer, dim, size), (calls, self_s) in sorted(rows.items())]


def measure(cli, workload, args, gauge):
    """Untraced passes until the time is up and the tail percentile has ten
    items beyond it; with tracing, traced and untraced passes alternate."""
    need_passes = -(-workloads.min_items(workload.tail_pct) // len(workload.items))
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            if elapsed >= args.seconds and len(traced) >= MIN_TRACED_PASSES:
                break
        elif elapsed >= args.seconds and len(untraced) >= need_passes:
            break
        pass_idx = len(untraced) + len(traced)
        if args.trace and len(untraced) > len(traced):
            tracer.install()
            try:
                traced.append(Pass(cli, workload, pass_idx, gauge, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(Pass(cli, workload, pass_idx, gauge))
    return tracer, untraced, traced


def print_metrics(title, metrics, units, notes=None):
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:<36} {value:>16.6g} {units[name]}{note}")


def write_out(name, obj):
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / name).write_text(json.dumps(obj, sort_keys=True))


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    gauge = speed.Gauge()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        prov = provenance(args, workload)
        print("provenance " + json.dumps(prov, sort_keys=True))
        setup_s, startup_s, setup_failures = measure_setup(workload)
        warm = run_item(cli, workload.warmup)
        tracer, untraced, traced = measure(cli, workload, args, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_results = [r for p in untraced + traced for r in p.results]
    failed_items = [r for r in all_results if not r.ok]
    attempted = len(all_results) + SETUP_RUNS + 1
    failed = len(failed_items) + len(setup_failures) + (not warm.ok)
    for r in failed_items[:10]:
        print(f"FAILED {r.kind}: {r.reason}")
    for reason in setup_failures[:3]:
        print(f"FAILED setup: {reason}")
    if not warm.ok:
        print(f"FAILED warm-up: {warm.reason}")
    numeric_warnings, sites = count_warnings(all_results)
    for (_, category, filename, lineno, message), n in sites.most_common():
        print(f"warning {category} at {filename}:{lineno}: {message} x{n} "
              f"(over {len(untraced) + len(traced)} passes)")
    kernel_ms = statistics.median(gauge.kernel_s) * 1e3
    print(f"speed kernel: median {kernel_ms:.4g} ms over {len(gauge.kernel_s)} timings, "
          f"reference {speed.REFERENCE_S * 1e3:.4g} ms; times below are scaled by their ratio")

    summary = {"provenance": prov, "speed_kernel_ms": kernel_ms,
               "pass_raw_wall_s": {"untraced": [p.raw_wall for p in untraced],
                                   "traced": [p.raw_wall for p in traced]}}
    if args.trace:
        metrics, units = per_layer(tracer, traced, untraced, startup_s)
        print_metrics(f"per-layer metrics, per pass ({len(traced)} traced passes)",
                      metrics, units)
        if tracer.absent:
            print("absent layer functions: " + ", ".join(tracer.absent))
        rows = size_rows(tracer, traced)
        print("self time by layer and size, per pass:")
        for row in rows:
            print(f"  {row['layer']:<24} {row['size']:<6} calls {row['calls']:>9.1f}  "
                  f"{row['self_ms_per_pass']:>10.3f} ms  {row['ms_per_call']:>9.4f} ms/call")
        summary.update(absent=tracer.absent, size_table=rows)
        write_out(f"spans_{args.workload}.json",
                  tracer.export([s for p in traced for s in p.spans]))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, notes = end_to_end(untraced, workload, setup_s, rss_mb)
        units = END_TO_END_UNITS
        print_metrics("end-to-end metrics", metrics, units, notes)
    print(f"items: {attempted} attempted, {failed} failed, "
          f"{sum(r.stderr_bytes > 0 for r in all_results)} wrote to stderr; "
          f"numerics.runtime_warnings {numeric_warnings}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    summary["result"] = result
    write_out(f"result_{args.workload}_trace{args.trace}.json", summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

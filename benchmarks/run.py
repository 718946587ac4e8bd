"""Benchmark of the dsm solver: one workload per process, timed from outside.

    python3 benchmarks/run.py --workload presets --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from ``src/``.
Workloads and metrics are named in ``BENCHMARK.json``.  A run builds the
workload's inputs from ``--seed``, runs one untimed warm-up pass, then repeats
identical passes for ``--seconds`` (at least three).  Every pass is checked from outside: each solver cell must
carry a valid discrepancy-stop certificate, each lemma report must pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics, tracing overhead
included.  Each metric is printed as ``name = value unit``; the last line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 1 when any unit fails its check, 2 when the package cannot be loaded.
"""

import os

# One BLAS thread in every workload process, set before numpy loads.  On a
# 2-core machine OpenBLAS's default of two threads made the n=1000 mesh cell
# take 8.8 s against 4.7 s with one, and swung the n=250 cell between 0.11 s
# and 1.02 s from run to run, far beyond the bound on wall_s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
MIN_PASSES = 3


def machine_info():
    import numpy
    import scipy

    info = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[f"{module.__name__}_blas"] = blas.get("openblas configuration", blas["name"])
        info[f"{module.__name__}_blas_threads"] = _blas_threads(module)
    for name in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        info[name.lower()] = _getconf(name)
    return info


def _blas_threads(module):
    """Thread count reported by the OpenBLAS bundled with numpy or scipy."""
    libs = glob.glob(os.path.join(os.path.dirname(module.__file__) + ".libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                return get()
    return None


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out.stdout) if out.stdout.strip().isdigit() else None


def setup_seconds():
    """Seconds a fresh process takes to import dsm and run one tiny cell."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py")],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(out.stdout.split()[-1])


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class Tally:
    """Units attempted and failed over every pass of the run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, raw):
        outcome = self.workload.evaluate(raw)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures.extend(outcome.failures)
        return outcome


def end_to_end(workload, inputs, seconds, tally):
    _, raw = timed(lambda: workload.run_pass(inputs))
    first = tally.check(raw)
    times, setup = [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(times) <= seconds
    ):
        # set-up probes are spread over the run, so one slow spell of a shared
        # machine does not decide their median
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_seconds())
        elapsed, raw = timed(lambda: workload.run_pass(inputs))
        times.append(elapsed)
        tally.check(raw)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(times)
    note = f"median of {len(times)} passes"
    if len(times) > 10:
        # the highest percentile with at least ten samples beyond it
        k = len(times) - 10
        note += f"; p{100 * k // len(times)} = {sorted(times)[k - 1]:.4f} s"
    print(f"# wall_s: {note}")
    print(f"# setup_s: median of {len(setup)} fresh processes, "
          f"range {min(setup):.4f}..{max(setup):.4f} s")
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "rel_error_median": workload.quality(first),
    }


def per_layer(workload, inputs, seconds, tally, trace_path):
    from spans import Tracer, layer_metrics, patched

    _, raw = timed(lambda: workload.run_pass(inputs))
    tally.check(raw)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start + statistics.median(untraced) + statistics.median(traced)
        <= seconds
    ):
        elapsed, raw = timed(lambda: workload.run_pass(inputs))
        untraced.append(elapsed)
        tally.check(raw)
        tracer = Tracer()
        with patched(tracer):
            elapsed, raw = timed(lambda: workload.run_pass(inputs, tracer.span))
        traced.append(elapsed)
        tally.check(raw)
        layers.append(layer_metrics(tracer.spans))
        if len(layers) == 1:
            _write_spans(trace_path, tracer.spans)
    metrics = {}
    for name, value in layers[0].items():
        values = [layer[name] for layer in layers]
        metrics[name] = statistics.median_low(values) if isinstance(value, int) else statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"# per-layer: median of {len(layers)} traced passes; spans of the first in {trace_path}")
    return metrics


def _write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        json.dump({
            "fields": ["name", "start_s", "end_s", "parent", "note"],
            "spans": [[name, start - origin, end - origin, parent, note]
                      for name, start, end, parent, note in spans],
        }, fh)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import dsm
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the dsm package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(dsm.__file__).startswith(SRC + os.sep):
        print(f"dsm was imported from {dsm.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print("# machine:", json.dumps(machine_info()))
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    tally = Tally(workload)
    if args.trace:
        trace_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        values = per_layer(workload, inputs, args.seconds, tally, trace_path)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(workload, inputs, args.seconds, tally)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    failed = tally.failed
    print(f"failed_frac = {failed / tally.attempted:.6g} ({failed} of {tally.attempted} units)")
    for message in tally.failures[:20]:
        print(f"# failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

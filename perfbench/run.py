"""Run one benchmark workload, or compare two sets of results.

Run from the root of a checkout::

    python3 perfbench/run.py --workload b1-lstm1024 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fleet-sim --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --compare perfbench/out/before perfbench/out/after

Workloads: ``b1-lstm1024``, ``b16-lstm1024``, ``serve-gru512``,
``fleet-sim`` (see ``perfbench/README.md``).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer metrics and the tracing overhead.
Every metric is printed by name and unit, then the run record is
written under ``--results`` and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout; without it the
run fails with exit code 2.
"""

import os
import sys
import time

_START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import core  # noqa: E402  (needs the path above)

# Pin the BLAS pool before numpy is imported: on a small shared host the
# benchmark should measure the program, not the thread scheduler.
for _var in core.BLAS_THREAD_VARS:
    os.environ[_var] = core.BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

#: Set-ups (and imports) per untraced run; ``setup_s`` reports the
#: median of each.
SETUP_REPEATS = 3

#: What :func:`_import_program` imports, for :func:`_import_seconds`.
_IMPORT = "import numpy, repro, perfbench.workloads"


def _import_program() -> float:
    """Import numpy and the program from this checkout; returns the
    seconds spent since the process started."""
    import numpy  # noqa: F401
    import repro
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    from perfbench import workloads  # noqa: F401
    return time.perf_counter() - _START


def _import_seconds() -> float:
    """One more import of the program, timed in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); " + _IMPORT
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path[:2]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _phase_failed(phase, extra: int = 0) -> int:
    return min(phase.requests, phase.failed + extra)


def run_untraced(workload, seconds: float, import_s: float) -> dict:
    rec = core.SpanRecorder(enabled=False)
    imports = [import_s] + [_import_seconds()
                            for _ in range(SETUP_REPEATS - 1)]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(rec)
        setup_s.append(time.perf_counter() - t0)
    phase = workload.run(state, seconds, rec)
    failed = _phase_failed(phase, workload.check(state, phase))
    per_call_ms = [s * 1e3 for s in phase.call_s]
    tail = core.tail_percentile(len(phase.call_s))
    return {
        "attempted": phase.requests,
        "failed": failed,
        "end_to_end": {
            "requests_per_s": phase.requests_per_s,
            "setup_s": core.median(imports) + core.median(setup_s),
            "peak_rss_mb": core.peak_rss_mb(),
        },
        "sim": phase.sim,
        "detail": {
            "request_ms_p50": phase.request_ms(50),
            "import_runs_s": imports,
            "setup_runs_s": setup_s,
            "tail_percentile": tail,
            "request_ms_tail": (phase.request_ms(tail)
                                if tail is not None else None),
            "serving_call_ms": core.quartiles(per_call_ms),
            "serving_call_samples_ms": per_call_ms,
            "serving_calls": len(phase.call_s),
            "timed_phase_s": phase.timed_s,
            "unit_rates": phase.unit_rates,
            "layers": phase.layers,
        },
    }


def run_traced(workload, seconds: float, results_dir: str,
               tag: str) -> dict:
    from perfbench.proxies import instrument
    half = seconds / 2.0
    plain = core.SpanRecorder(enabled=False)
    state = workload.setup(plain)
    base = workload.run(state, half, plain)
    base_failed = _phase_failed(base, workload.check(state, base))
    state = None
    gc.collect()

    rec = core.SpanRecorder(enabled=True)
    counters = {}
    with instrument(rec, counters) as monitors:
        with rec.span("bench.setup"):
            state = workload.setup(rec)
        counters["plans_compiled"] = 0
        traced = workload.run(state, half, rec)
    traced_failed = _phase_failed(traced, workload.check(state, traced))

    # Tracing must not change what the program computes: the common
    # prefix of requests has identical outputs and the simulated
    # metrics are identical.
    shared = min(len(base.digests), len(traced.digests))
    mismatched = sum(a != b for a, b in zip(base.digests[:shared],
                                            traced.digests[:shared]))
    if base.sim != traced.sim or base.layers != traced.layers:
        mismatched = traced.requests
    traced_failed = min(traced.requests, traced_failed + mismatched)

    layers = {name: 0.0 for name in core.PER_LAYER}
    layers.update(traced.layers)
    layers.update(traced.sim)
    layers.update(workload.layers(rec, state, traced, monitors))
    layers["replay.plans_compiled"] = float(counters["plans_compiled"])
    layers["bench.tracing_overhead_pct"] = (
        (base.requests_per_s / traced.requests_per_s - 1.0) * 100.0
        if traced.requests_per_s > 0 else 0.0)
    trace_path = os.path.join(results_dir, f"trace-{tag}.json")
    events = rec.write_chrome_trace(trace_path)
    return {
        "attempted": base.requests + traced.requests,
        "failed": base_failed + traced_failed,
        "per_layer": layers,
        "sim": traced.sim,
        "detail": {
            "untraced_requests_per_s": base.requests_per_s,
            "traced_requests_per_s": traced.requests_per_s,
            "outputs_compared": shared,
            "outputs_mismatched": mismatched,
            "chrome_trace": os.path.relpath(trace_path, ROOT),
            "chrome_trace_events": events,
            "spans_dropped": rec.tracer.dropped,
        },
    }


def _print_metrics(title: str, values: dict, catalogue: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {catalogue[name][0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    parser.add_argument("--workload", choices=core.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"),
                        default="full",
                        help="tiny models and traces for the "
                             "benchmark's own tests")
    parser.add_argument("--results", default=os.path.join(
        ROOT, "perfbench", "out", "runs"),
        help="directory for run records and Chrome traces")
    parser.add_argument("--compare", nargs="+", metavar="DIR",
                        help="summarise one set of run records, or "
                             "compare two")
    args = parser.parse_args(argv)
    if args.compare:
        from perfbench.compare import compare
        return compare(args.compare, os.path.join(ROOT,
                                                  "BENCHMARK.json"))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_s = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.size, args.seed)
    os.makedirs(args.results, exist_ok=True)
    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
           f"{time.time_ns()}")
    trace = bool(args.trace)
    if trace:
        record = run_traced(workload, args.seconds, args.results, tag)
        metrics = record["per_layer"]
        catalogue = core.PER_LAYER
    else:
        record = run_untraced(workload, args.seconds, import_s)
        metrics = record["end_to_end"]
        catalogue = core.END_TO_END
    record["provenance"] = core.provenance(
        ROOT, args.workload, args.seed, args.seconds, trace, args.size)
    attempted, failed = record["attempted"], record["failed"]

    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, size {args.size}")
    _print_metrics("host time" if not trace else "per layer (traced run)",
                   metrics, catalogue)
    if not trace:
        detail = record["detail"]
        print(f"  {'request_ms_p50':42s} {detail['request_ms_p50']:14.6g} ms")
        if detail["tail_percentile"] is not None:
            name = f"request_ms_p{detail['tail_percentile']:g}"
            print(f"  {name:42s} {detail['request_ms_tail']:14.6g} ms")
        _print_metrics("simulated time (exact for a seed)",
                       record["sim"], core.SIM)
    print(f"requests: attempted {attempted}, succeeded "
          f"{attempted - failed}, failed {failed}")
    path = os.path.join(args.results, f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"run record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": catalogue[name][0]}
                    for name in catalogue},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

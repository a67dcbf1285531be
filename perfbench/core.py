"""Shared pieces of the benchmark: statistics, host-time spans,
provenance and the run record.

Host time is read from ``time.perf_counter`` only here and in the
workloads' timing of their own calls; it never feeds a simulated
decision.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence

#: Environment variables that pin the BLAS pool; ``run.py`` sets them
#: before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = "1"

WORKLOAD_NAMES = ("b1-lstm1024", "b16-lstm1024", "serve-gru512",
                  "fleet-sim")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them
    (the same estimator the bounds are judged with)."""
    vals = [float(v) for v in values]
    if not vals:
        return {"n": 0, "q1": 0.0, "median": 0.0, "q3": 0.0}
    if len(vals) == 1:
        return {"n": 1, "q1": vals[0], "median": vals[0], "q3": vals[0]}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"n": len(vals), "q1": q1, "median": q2, "q3": q3}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def tail_percentile(n: int, candidates=(99.9, 99.0, 90.0)
                    ) -> Optional[float]:
    """The highest candidate percentile with at least ten samples
    beyond it at sample count ``n``; ``None`` when none qualifies."""
    for q in candidates:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Host-time spans
# ---------------------------------------------------------------------------

class SpanRecorder:
    """Host-time spans around calls into the program's layers.

    Spans are kept in memory in a :class:`repro.obs.Tracer` (unit
    ``"s"``, timestamps are seconds since the recorder was made), so
    the repository's Chrome-trace exporter writes them out at the end.
    Every span carries the id of the request being served, and the
    tracer's begin/end stack records which span caused it.  A disabled
    recorder records nothing and costs one attribute test per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.request: Optional[int] = None
        self._t0 = time.perf_counter()
        if enabled:
            from repro.obs import Tracer
            self.tracer = Tracer(unit="s", max_events=2_000_000)
        else:
            self.tracer = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        if self.tracer is None:
            yield
            return
        if self.request is not None:
            attrs["request"] = self.request
        sp = self.tracer.begin(name, time.perf_counter() - self._t0,
                               track="host", **attrs)
        try:
            yield
        finally:
            self.tracer.end(sp, time.perf_counter() - self._t0)

    # -- per-layer readout ------------------------------------------------

    def spans(self, name: str, timed: bool = False) -> list:
        """Spans called ``name``; with ``timed``, only those recorded
        while a request was served (not set-up or warm-up)."""
        if self.tracer is None:
            return []
        return [s for s in self.tracer.find(name)
                if not timed or "request" in s.attrs]

    def durations(self, name: str, timed: bool = False) -> List[float]:
        return [s.duration for s in self.spans(name, timed)]

    def self_times(self, name: str, timed: bool = False) -> List[float]:
        """Span duration minus the time its direct children cover."""
        if self.tracer is None:
            return []
        child_time: Dict[int, float] = {}
        for s in self.tracer.spans:
            if s.parent is not None:
                child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                        + s.duration)
        return [s.duration - child_time.get(s.id, 0.0)
                for s in self.spans(name, timed)]

    def write_chrome_trace(self, path: str) -> int:
        from repro.obs import write_chrome_trace
        return write_chrome_trace(path, self.tracer)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_sha(root: str) -> str:
    """The checkout's commit, read from its ``.git`` directory; running
    git instead would search the directories above the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.split()[-1:] == [ref]:
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_build() -> Dict[str, object]:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": "unknown"}
    return {key: blas.get(key) for key in
            ("name", "version", "openblas configuration")
            if blas.get(key) is not None}


def provenance(root: str, workload: str, seed: int, seconds: float,
               trace: bool, size: str) -> Dict[str, object]:
    import numpy as np
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": {var: os.environ.get(var)
                         for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
    }


# ---------------------------------------------------------------------------
# Metric catalogue (BENCHMARK.json lists the same names and units)
# ---------------------------------------------------------------------------

#: name -> (unit, better).  Host time; printed with ``--trace 0``.
END_TO_END = {
    "requests_per_s": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Simulated time: repeats exactly for a seed.  Printed in every run,
#: reported in the traced run's per-layer set.
SIM = {
    "sim_request_ms_p50": ("ms", "lower"),
    "sim_request_ms_p99": ("ms", "lower"),
    "sim_goodput_rps": ("req/s", "higher"),
    "sim_availability": ("fraction", "higher"),
}

#: name -> (unit, better).  Printed with ``--trace 1``; a layer that a
#: workload bypasses reads 0 there.
PER_LAYER = {
    "compiler.compile_s": ("s", "lower"),
    "functional.pin_weights_s": ("s", "lower"),
    "replay.first_run_s": ("s", "lower"),
    "replay.run_ms_p50": ("ms", "lower"),
    "replay.ms_per_step": ("ms", "lower"),
    "replay.plans_compiled": ("count", "lower"),
    "functional.instructions_per_request": ("count", "lower"),
    "functional.macs_per_request": ("count", "lower"),
    "replay.batched_round_ms_p50": ("ms", "lower"),
    "replay.batched_ms_per_request_step": ("ms", "lower"),
    "microservice.invoke_ms_p50": ("ms", "lower"),
    "microservice.invoke_batched_self_ms_p50": ("ms", "lower"),
    "timing.first_latency_ms": ("ms", "lower"),
    "functional.batched_dispatch_ms_p50": ("ms", "lower"),
    "batching.self_ms_per_dispatch": ("ms", "lower"),
    "batching.dispatches": ("count", "lower"),
    "batching.mean_batch": ("requests", "higher"),
    "batching.queue_wait_ms_p50": ("ms", "lower"),
    "batching.queue_wait_ms_p99": ("ms", "lower"),
    "batching.target_changes": ("count", "lower"),
    "loadgen.trace_build_s": ("s", "lower"),
    "cluster.unbatched_run_s": ("s", "lower"),
    "cluster.batched_run_s": ("s", "lower"),
    "cluster.unbatched_req_per_s": ("req/s", "higher"),
    "cluster.batched_req_per_s": ("req/s", "higher"),
    "cluster.served": ("count", "higher"),
    "cluster.shed": ("count", "lower"),
    "cluster.brownout": ("count", "lower"),
    "cluster.timeout": ("count", "lower"),
    "cluster.failed": ("count", "lower"),
    "cluster.batched_mean_batch": ("requests", "higher"),
    "cluster.active_nodes_max": ("count", "lower"),
    "monitor.overhead_s": ("s", "lower"),
    "monitor.scrapes": ("count", "lower"),
    "obs.incidents": ("count", "lower"),
    **SIM,
    "bench.tracing_overhead_pct": ("%", "lower"),
}

"""Request-level serving simulation: latency under load.

The paper's motivation (Section I): "in an online inference setting,
requests often arrive one at a time; a throughput architecture must
either process these requests individually, leading to reduced
throughput while still sustaining batch-equivalent latency, or incur
increased latency by waiting for multiple request arrivals to form a
batch." This module makes that argument quantitative: a discrete-event
simulation of Poisson request arrivals against

* a **batch-1 server** (the BW NPU: one request at a time, fixed
  service time), and
* a **batching server** (the GPU serving stack: requests queue until
  ``max_batch`` accumulate or the oldest waits ``timeout``; a batch of
  size b takes ``batch_service_time(b)``),

reporting the latency distribution each sustains at a given arrival
rate.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import ReproError
from ..obs import Metrics, Tracer, or_null, or_null_metrics, \
    percentile_or_nan
from .batching import AdaptiveBatchPolicy, BatchingError, BatchPolicy, \
    DynamicBatcher, ServedRequest, ServiceTimeCurve
from .faults import FaultInjector, InvocationOutcome, ResilientClient


class LoadError(ReproError):
    """Invalid load-generation parameters."""


@dataclasses.dataclass(frozen=True)
class LoadResult:
    """Latency statistics of one simulation.

    Degenerate (empty) result sets follow NaN-with-flag semantics:
    :attr:`empty` is the flag, and every statistic returns ``nan``
    instead of raising or reporting a misleading ``0.0``.
    """

    requests: List[ServedRequest]

    @property
    def empty(self) -> bool:
        """No requests were served — every statistic below is ``nan``."""
        return not self.requests

    def percentile_latency(self, q: float) -> float:
        """Latency percentile (seconds) via the shared
        :func:`repro.obs.percentile_or_nan` helper; ``nan`` when
        :attr:`empty`."""
        return percentile_or_nan([r.latency for r in self.requests], q)

    @property
    def p50_ms(self) -> float:
        return self.percentile_latency(50) * 1e3

    @property
    def p99_ms(self) -> float:
        return self.percentile_latency(99) * 1e3

    @property
    def mean_ms(self) -> float:
        if self.empty:
            return float("nan")
        return 1e3 * float(np.mean([r.latency for r in self.requests]))

    @property
    def throughput_rps(self) -> float:
        if self.empty:
            return float("nan")
        span = self.requests[-1].finish - self.requests[0].arrival
        return len(self.requests) / span if span > 0 else float("inf")


def poisson_arrivals(rate_rps: float, count: int,
                     seed: int = 0) -> List[float]:
    """Arrival times of a Poisson process at ``rate_rps``."""
    if rate_rps <= 0 or count < 1:
        raise LoadError("rate and count must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, count)
    return list(np.cumsum(gaps))


def uniform_arrivals(rate_rps: float, count: int) -> List[float]:
    """Deterministic equally-spaced arrivals (for tests)."""
    if rate_rps <= 0 or count < 1:
        raise LoadError("rate and count must be positive")
    return [(i + 1) / rate_rps for i in range(count)]


# ---------------------------------------------------------------------------
# Open-loop arrival traces (vectorized)
#
# The cluster/chaos simulations drive 1e6+ simulated requests, so trace
# synthesis is fully vectorized: each generator is a handful of numpy
# calls with no per-request Python work, seeded for bit-determinism.
# Non-homogeneous processes use Lewis-Shedler thinning of a homogeneous
# Poisson process at the peak rate.
# ---------------------------------------------------------------------------

def _homogeneous_times(rate_rps: float, duration_s: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Event times of a homogeneous Poisson process over a duration."""
    times: List[np.ndarray] = []
    t = 0.0
    # Over-draw ~10% past the expected count, looping in the (rare)
    # case the trace still falls short of the duration.
    chunk = max(int(rate_rps * duration_s * 1.1) + 16, 64)
    while t < duration_s:
        gaps = rng.exponential(1.0 / rate_rps, chunk)
        block = t + np.cumsum(gaps)
        times.append(block)
        t = float(block[-1])
    all_times = np.concatenate(times)
    return all_times[all_times < duration_s]


def diurnal_arrivals(base_rate_rps: float, peak_rate_rps: float,
                     duration_s: float, period_s: float = 86400.0,
                     seed: int = 0) -> np.ndarray:
    """Sinusoidal diurnal traffic: rate swings ``base`` -> ``peak`` ->
    ``base`` over each ``period_s`` (trough at t=0, peak at half
    period)."""
    if base_rate_rps <= 0 or peak_rate_rps < base_rate_rps:
        raise LoadError(
            f"need 0 < base_rate ({base_rate_rps}) <= peak_rate "
            f"({peak_rate_rps})")
    if duration_s <= 0 or period_s <= 0:
        raise LoadError("duration and period must be positive")
    rng = np.random.default_rng(seed)
    t = _homogeneous_times(peak_rate_rps, duration_s, rng)
    rate_t = base_rate_rps + (peak_rate_rps - base_rate_rps) * 0.5 * (
        1.0 - np.cos(2.0 * np.pi * t / period_s))
    keep = rng.random(t.size) < rate_t / peak_rate_rps
    return t[keep]


def bursty_arrivals(base_rate_rps: float, burst_rate_rps: float,
                    duration_s: float, mean_quiet_s: float = 1.0,
                    mean_burst_s: float = 0.2,
                    seed: int = 0) -> np.ndarray:
    """Markov-modulated (two-state) traffic: exponential quiet/burst
    sojourns alternate, with Poisson arrivals at the state's rate."""
    if base_rate_rps <= 0 or burst_rate_rps < base_rate_rps:
        raise LoadError(
            f"need 0 < base_rate ({base_rate_rps}) <= burst_rate "
            f"({burst_rate_rps})")
    if duration_s <= 0 or mean_quiet_s <= 0 or mean_burst_s <= 0:
        raise LoadError("duration and sojourn means must be positive")
    rng = np.random.default_rng(seed)
    # Draw alternating sojourn boundaries well past the duration.
    cycle = mean_quiet_s + mean_burst_s
    n_cycles = max(int(duration_s / cycle * 2) + 8, 8)
    quiet = rng.exponential(mean_quiet_s, n_cycles)
    burst = rng.exponential(mean_burst_s, n_cycles)
    while float(np.sum(quiet) + np.sum(burst)) < duration_s:
        quiet = np.concatenate([quiet,
                                rng.exponential(mean_quiet_s, n_cycles)])
        burst = np.concatenate([burst,
                                rng.exponential(mean_burst_s, n_cycles)])
    bounds = np.cumsum(np.stack([quiet[:len(burst)], burst],
                                axis=1).ravel())
    t = _homogeneous_times(burst_rate_rps, duration_s, rng)
    # Even segment index (0, 2, ...) = quiet state, odd = burst.
    in_burst = (np.searchsorted(bounds, t, side="right") % 2) == 1
    rate_t = np.where(in_burst, burst_rate_rps, base_rate_rps)
    keep = rng.random(t.size) < rate_t / burst_rate_rps
    return t[keep]


def heavy_tailed_arrivals(rate_rps: float, count: int,
                          alpha: float = 1.5,
                          seed: int = 0) -> np.ndarray:
    """Pareto inter-arrival gaps with tail index ``alpha`` (heavier as
    ``alpha`` -> 1) and mean gap ``1/rate_rps``: long silences broken
    by dense request clumps."""
    if rate_rps <= 0 or count < 1:
        raise LoadError("rate and count must be positive")
    if alpha <= 1.0:
        raise LoadError(
            f"alpha={alpha} needs alpha > 1 for a finite mean gap")
    rng = np.random.default_rng(seed)
    scale = (alpha - 1.0) / alpha / rate_rps  # Pareto x_m for the mean
    # 1-U maps [0,1) to (0,1], keeping the inverse CDF finite.
    gaps = scale * (1.0 - rng.random(count)) ** (-1.0 / alpha)
    return np.cumsum(gaps)


def _serve(service_time: Callable[[int], float], max_batch: int,
           timeout_s: float, arrivals: Sequence[float]) -> LoadResult:
    """FIFO batch formation over a service-time function, by the one
    target-or-timeout loop (:class:`~repro.system.batching
    .DynamicBatcher`)."""
    batcher = DynamicBatcher(
        BatchPolicy(max_batch=max_batch, timeout_s=timeout_s),
        curve=service_time)
    return LoadResult(batcher.run(sorted(arrivals)).requests)


class Batch1Server:
    """One request at a time at a fixed service time — the BW regime:
    a batcher with ``max_batch=1`` and no forming timeout."""

    def __init__(self, service_time_s: float):
        if service_time_s <= 0:
            raise LoadError("service time must be positive")
        self.service_time_s = service_time_s

    @property
    def capacity_rps(self) -> float:
        return 1.0 / self.service_time_s

    def simulate(self, arrivals: Sequence[float]) -> LoadResult:
        return _serve(lambda batch: self.service_time_s, 1, 0.0, arrivals)


class BatchingServer:
    """Forms batches up to ``max_batch``, waiting at most ``timeout_s``
    for stragglers — the GPU serving-stack regime."""

    def __init__(self, batch_service_time: Callable[[int], float],
                 max_batch: int, timeout_s: float):
        if max_batch < 1:
            raise LoadError("max_batch must be >= 1")
        if timeout_s < 0:
            raise LoadError("timeout must be non-negative")
        self.batch_service_time = batch_service_time
        self.max_batch = max_batch
        self.timeout_s = timeout_s

    @classmethod
    def from_curve(cls, curve, max_batch: int,
                   timeout_s: float) -> "BatchingServer":
        """A batching server backed by a **measured**
        :class:`~repro.system.batching.ServiceTimeCurve` instead of a
        hand-written service-time function, so SLO comparisons run
        against the service times batched replay actually achieves."""
        if not callable(curve):
            raise LoadError(
                f"curve must be callable (batch -> seconds), got "
                f"{type(curve).__name__}")
        return cls(curve, max_batch, timeout_s)

    def capacity_rps(self) -> float:
        """Throughput ceiling at full batches."""
        return self.max_batch / self.batch_service_time(self.max_batch)

    def simulate(self, arrivals: Sequence[float]) -> LoadResult:
        return _serve(self.batch_service_time, self.max_batch,
                      self.timeout_s, arrivals)


@dataclasses.dataclass(frozen=True)
class SloComparison:
    """One arrival-rate point of the BW-vs-GPU serving comparison."""

    rate_rps: float
    bw: LoadResult
    gpu: LoadResult


# ---------------------------------------------------------------------------
# Fault-aware serving scenarios
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """A scheduled liveness change: crash or repair a node at a time."""

    time_s: float
    action: str  # "crash" | "repair"
    node: str

    def __post_init__(self) -> None:
        if self.action not in ("crash", "repair"):
            raise LoadError(f"unknown fault action {self.action!r}")


@dataclasses.dataclass(frozen=True)
class FaultScenarioResult:
    """Availability/goodput/latency statistics of one fault scenario."""

    outcomes: List[InvocationOutcome]
    #: Request arrival times, aligned with ``outcomes``.
    arrivals: List[float]
    #: Injected-fault counts by category, snapshotted at scenario end.
    fault_counts: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def empty(self) -> bool:
        """No requests were issued — rate/latency statistics are ``nan``."""
        return not self.outcomes

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return self.total - self.served

    @property
    def has_successes(self) -> bool:
        """At least one request succeeded — latency percentiles are
        real numbers rather than ``nan``."""
        return any(o.ok for o in self.outcomes)

    @property
    def availability(self) -> float:
        """Fraction of requests that produced a result at all; ``nan``
        for an empty scenario (see :attr:`empty`)."""
        if not self.outcomes:
            return float("nan")
        return self.served / self.total

    @property
    def slo_met(self) -> int:
        return sum(1 for o in self.outcomes if o.deadline_met)

    @property
    def goodput_rps(self) -> float:
        """Deadline-met completions per second of scenario time;
        ``nan`` for an empty scenario."""
        span = self.span_s
        if np.isnan(span):
            return float("nan")
        return self.slo_met / span if span > 0 else float("inf")

    @property
    def span_s(self) -> float:
        """First arrival to last finish (seconds); ``nan`` when empty."""
        if not self.outcomes:
            return float("nan")
        last_finish = max(a + o.latency_s
                          for a, o in zip(self.arrivals, self.outcomes))
        return last_finish - self.arrivals[0]

    def percentile_latency_ms(self, q: float) -> float:
        """Latency percentile over *successful* requests (ms), via the
        shared :func:`repro.obs.percentile_or_nan` helper; ``nan`` when
        every request failed (:attr:`has_successes` is the flag)."""
        lat = [o.latency_s for o in self.outcomes if o.ok]
        return percentile_or_nan(lat, q) * 1e3

    @property
    def p50_ms(self) -> float:
        return self.percentile_latency_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile_latency_ms(99)

    @property
    def p999_ms(self) -> float:
        return self.percentile_latency_ms(99.9)

    @property
    def mean_attempts(self) -> float:
        if not self.outcomes:
            return float("nan")
        return float(np.mean([o.attempts for o in self.outcomes]))

    @property
    def hedged(self) -> int:
        return sum(1 for o in self.outcomes if o.hedged)


def run_fault_scenario(client: ResilientClient, service: str,
                       arrivals: Sequence[float], steps: int,
                       injector: Optional[FaultInjector] = None,
                       events: Sequence[FaultEvent] = (),
                       tracer: Optional[Tracer] = None,
                       metrics: Optional[Metrics] = None
                       ) -> FaultScenarioResult:
    """Drive ``arrivals`` through a resilient client under faults.

    Requests are issued open-loop at their arrival times, in order;
    scheduled :class:`FaultEvent` crashes/repairs are applied to
    ``injector`` as simulated time passes them. Server-side queueing is
    not modeled here (each request sees an unloaded replica) — the
    point is the fault/recovery behavior, and
    :class:`Batch1Server`/:class:`BatchingServer` cover queueing.

    ``tracer`` (simulated-seconds timebase) receives an instant event
    per applied :class:`FaultEvent`; ``metrics`` gets scenario-level
    served/failed counters. Per-request spans come from the *client's*
    tracer — pass the same instance to both for one unified trace.

    Fully deterministic: fixed seeds (injector + client) and a fixed
    arrival sequence reproduce identical outcomes, traced or not.
    """
    if events and injector is None:
        raise LoadError("fault events scheduled but no injector given")
    tracer = or_null(tracer)
    metrics = or_null_metrics(metrics)
    arrivals = sorted(arrivals)
    pending = sorted(events, key=lambda e: e.time_s)
    idx = 0
    outcomes: List[InvocationOutcome] = []
    for arrival in arrivals:
        while idx < len(pending) and pending[idx].time_s <= arrival:
            event = pending[idx]
            if event.action == "crash":
                injector.crash(event.node)
            else:
                injector.repair(event.node)
            tracer.instant(f"fault:{event.action}", event.time_s,
                           track="faults", node=event.node)
            metrics.counter(f"scenario.{event.action}_events").inc()
            idx += 1
        outcome = client.invoke(service, steps, now=arrival)
        outcomes.append(outcome)
        metrics.counter("scenario.served" if outcome.ok
                        else "scenario.failed").inc()
    counts = dict(injector.counts) if injector is not None else {}
    for kind, count in counts.items():
        metrics.gauge(f"scenario.injected.{kind}").set(count)
    return FaultScenarioResult(outcomes=outcomes,
                               arrivals=list(arrivals),
                               fault_counts=counts)


def compare_under_load(bw_service_s: float,
                       gpu_batch_service: Callable[[int], float],
                       max_batch: int, timeout_s: float,
                       rates_rps: Sequence[float],
                       requests: int = 2000,
                       seed: int = 0) -> List[SloComparison]:
    """Simulate both serving stacks across arrival rates."""
    bw_server = Batch1Server(bw_service_s)
    gpu_server = BatchingServer(gpu_batch_service, max_batch, timeout_s)
    out = []
    for rate in rates_rps:
        arrivals = poisson_arrivals(rate, requests, seed=seed)
        out.append(SloComparison(
            rate_rps=rate,
            bw=bw_server.simulate(arrivals),
            gpu=gpu_server.simulate(arrivals)))
    return out


# ---------------------------------------------------------------------------
# The headline sweep: goodput at a fixed SLO, batch-1 vs dynamic
# ---------------------------------------------------------------------------

def slo_sweep(curve: ServiceTimeCurve, slo_s: float,
              rates_rps: Sequence[float], requests: int = 2000,
              max_batch: int = 16, timeout_s: Optional[float] = None,
              seed: int = 0,
              metrics: Optional[Metrics] = None) -> Dict:
    """Goodput at a fixed SLO: batch-1 vs SLO-aware dynamic batching.

    Both servers see identical Poisson arrival traces per rate.  The
    batch-1 server runs at the measured batch-1 service time (the BW
    regime); the dynamic batcher runs the same measured curve under an
    :class:`AdaptiveBatchPolicy` targeting ``slo_s``.  The payload's
    ``goodput_ratio`` is the peak dynamic goodput over the peak
    batch-1 goodput across the sweep — the number the perf gate floors.
    """
    if slo_s <= 0:
        raise BatchingError(f"slo_s must be positive, got {slo_s}")
    if not rates_rps:
        raise BatchingError("rates_rps must be non-empty")
    if timeout_s is None:
        timeout_s = slo_s / 4.0
    # The batch-1 server is the same loop at max_batch=1; it records
    # nothing into ``metrics``, which observe the dynamic batcher.
    batch1 = DynamicBatcher(BatchPolicy(max_batch=1, timeout_s=0.0),
                            curve=curve)
    rows = []
    for rate in rates_rps:
        arrivals = poisson_arrivals(float(rate), requests, seed=seed)
        base = batch1.run(arrivals)
        batcher = DynamicBatcher(
            BatchPolicy(max_batch=max_batch, timeout_s=timeout_s),
            curve=curve,
            adaptive=AdaptiveBatchPolicy(slo_s, max_batch=max_batch),
            metrics=metrics)
        dyn = batcher.run(arrivals)
        rows.append({
            "rate_rps": float(rate),
            "batch1_goodput_rps": base.goodput_rps(slo_s),
            "batch1_p99_ms": base.p99_ms,
            "dynamic_goodput_rps": dyn.goodput_rps(slo_s),
            "dynamic_p99_ms": dyn.p99_ms,
            "dynamic_mean_batch": dyn.mean_batch,
            "dynamic_slo_attainment": dyn.slo_attainment(slo_s),
        })
    peak_batch1 = max(r["batch1_goodput_rps"] for r in rows)
    peak_dynamic = max(r["dynamic_goodput_rps"] for r in rows)
    ratio = (peak_dynamic / peak_batch1 if peak_batch1 > 0
             else float("nan"))
    return {
        "slo_ms": slo_s * 1e3,
        "timeout_ms": timeout_s * 1e3,
        "max_batch": max_batch,
        "requests_per_rate": requests,
        "curve": curve.to_json(),
        "rates": rows,
        "peak_goodput_batch1_rps": peak_batch1,
        "peak_goodput_dynamic_rps": peak_dynamic,
        "goodput_ratio": ratio,
    }



def render_slo_sweep(payload: Dict) -> str:
    """Fixed-width table of one :func:`slo_sweep` payload."""
    header = (f"{'rate r/s':>10} {'b1 goodput':>11} {'b1 p99ms':>9} "
              f"{'dyn goodput':>12} {'dyn p99ms':>10} {'mean b':>7}")
    lines = [f"SLO {payload['slo_ms']:.3f} ms, max_batch "
             f"{payload['max_batch']}, timeout "
             f"{payload['timeout_ms']:.3f} ms",
             header, "-" * len(header)]
    for r in payload["rates"]:
        lines.append(
            f"{r['rate_rps']:>10.0f} {r['batch1_goodput_rps']:>11.0f} "
            f"{r['batch1_p99_ms']:>9.3f} "
            f"{r['dynamic_goodput_rps']:>12.0f} "
            f"{r['dynamic_p99_ms']:>10.3f} "
            f"{r['dynamic_mean_batch']:>7.2f}")
    lines.append(
        f"peak goodput: batch-1 "
        f"{payload['peak_goodput_batch1_rps']:.0f}/s, dynamic "
        f"{payload['peak_goodput_dynamic_rps']:.0f}/s -> "
        f"{payload['goodput_ratio']:.2f}x")
    return "\n".join(lines)

"""The four workloads.

Each workload builds its program state in :meth:`setup` (compile, pin
weights, warm up, build traces), serves requests in :meth:`run` for a
host-time budget, and checks sampled outputs against a reference in
:meth:`check`.  Every request's inputs come from the workload seed and
the request's index alone, so two runs with one seed serve identical
requests, and no two requests share an input buffer (the executor
caches quantized inputs by their bytes).

Host time is only ever *measured* here; the simulated side (batch
formation, batch service curves, cluster events) is driven by fixed
data and the seed, so every ``sim_*`` number repeats exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.compiler.lowering import compile_gru, compile_lstm
from repro.config import BW_S10
from repro.models.gru import GruReference
from repro.models.lstm import LstmReference
from repro.system import (AdaptiveBatchPolicy, AutoscalePolicy,
                          BatchPolicy, ClusterSimulator, ClusterSpec,
                          DynamicBatcher, FpgaNode, HardwareMicroservice,
                          NodeBatching, ServiceTimeCurve, diurnal_arrivals,
                          poisson_arrivals, run_chaos_scenario,
                          run_monitored_scenario)

from .core import SpanRecorder, median, percentile
from .proxies import ServingProxy, TracedCompiledModel, make_node

#: Fixed relative batch service-time curve r(b) = t(b) / t(1), carried
#: as data so that no wall-clock time feeds batch formation.  The points
#: are the batched-replay rows of LSTM h=1024 on BW_S10 committed in
#: BENCH_perf.json (b=4: 4 x 1.434 / 2.300 ms, b=16: 16 x 0.730 /
#: 2.300 ms per request-step).
BATCH_CURVE = ServiceTimeCurve((1, 4, 16), (1.0, 2.49, 5.08))

#: Seed streams: warm-up requests, timed requests, traces.
_WARM, _TIMED = 1, 2


def request_inputs(seed: int, stream: int, index: int, steps: int,
                   length: int) -> List[np.ndarray]:
    """The input sequence of one request, from the seed and its index."""
    rng = np.random.default_rng([seed, stream, index])
    data = rng.standard_normal((steps, length)).astype(np.float32)
    return list(data)


def digest(outputs) -> str:
    """Bit-exact fingerprint of one request's outputs."""
    h = hashlib.blake2b(digest_size=16)
    for out in outputs:
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


def _same(a: List[np.ndarray], b: List[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y)
                                    for x, y in zip(a, b))


@dataclasses.dataclass
class Phase:
    """What one timed phase served and measured."""

    #: Host seconds of each serving call, and the requests each served.
    call_s: List[float] = dataclasses.field(default_factory=list)
    call_requests: List[int] = dataclasses.field(default_factory=list)
    #: Requests per host second of each unit the phase repeats
    #: (request, round, pass), and the phase's host seconds.
    unit_rates: List[float] = dataclasses.field(default_factory=list)
    timed_s: float = 0.0
    requests: int = 0
    failed: int = 0
    #: Per-request output fingerprints, in serving order.
    digests: List[str] = dataclasses.field(default_factory=list)
    #: Simulated-time metrics (repeat exactly for a seed).
    sim: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-layer readings that need no tracing (counts, simulated).
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: (request inputs, outputs) kept for the output check.
    samples: List[Tuple[object, object]] = dataclasses.field(
        default_factory=list)

    def add_unit(self, seconds: float, requests: int) -> None:
        self.unit_rates.append(requests / seconds)
        self.timed_s += seconds

    @property
    def requests_per_s(self) -> float:
        """Median over the repeated units of requests per host second:
        a stall of the shared host moves one unit, not the metric."""
        return median(self.unit_rates)

    def request_ms(self, q: float) -> float:
        """Percentile over requests of the host time of the call that
        served each request."""
        per_request = np.repeat(np.asarray(self.call_s),
                                np.asarray(self.call_requests))
        return percentile(per_request, q) * 1e3


@dataclasses.dataclass(frozen=True)
class Size:
    hidden: int
    steps: int
    #: Requests per pass (serve) or per cluster plane run (fleet).
    requests: int = 0


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    sizes: Dict[str, Size] = {}

    def __init__(self, size: str, seed: int):
        self.size = self.sizes[size]
        self.seed = seed

    def setup(self, rec: SpanRecorder):
        raise NotImplementedError

    def run(self, state, seconds: float, rec: SpanRecorder) -> Phase:
        raise NotImplementedError

    def check(self, state, phase: Phase) -> int:
        """Number of operations whose output disagrees with the
        reference."""
        raise NotImplementedError

    def layers(self, rec: SpanRecorder, state, phase: Phase,
               monitors) -> Dict[str, float]:
        """Per-layer metrics from the traced run's spans."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# b1-lstm1024: batch-1 compiled replay, one closed-loop client
# ---------------------------------------------------------------------------

class Batch1Lstm(Workload):
    name = "b1-lstm1024"
    sizes = {"full": Size(hidden=1024, steps=25),
             "tiny": Size(hidden=128, steps=5)}
    #: Warm-up requests: the plan cache reaches its fixed point on the
    #: second compiled run.
    warmups = 2
    #: Timed requests replayed on the vectorized interpreter.
    check_prefix = 6

    def _inputs(self, stream: int, index: int, model) -> List[np.ndarray]:
        return request_inputs(self.seed, stream, index, self.size.steps,
                              model.input_length)

    def setup(self, rec: SpanRecorder):
        size = self.size
        with rec.span("compiler.compile_lstm"):
            model = compile_lstm(LstmReference(hidden_dim=size.hidden,
                                               seed=7), BW_S10,
                                 name=f"lstm{size.hidden}")
        served = (TracedCompiledModel.wrap(model, rec) if rec.enabled
                  else model)
        service = ServingProxy("lstm", make_node("b1", model, rec),
                               recorder=rec)
        sim = served.new_simulator()
        first_run_s = 0.0
        for k in range(self.warmups):
            xs = self._inputs(_WARM, k, model)
            t0 = time.perf_counter()
            served.run_sequence(xs, sim=sim, compiled=True)
            if k == 0:
                first_run_s = time.perf_counter() - t0
        service.invoke(size.steps)
        service.call_s.clear()
        return {"model": model, "served": served, "sim": sim,
                "service": service, "first_run_s": first_run_s}

    def run(self, state, seconds: float, rec: SpanRecorder) -> Phase:
        model, served = state["model"], state["served"]
        sim, service = state["sim"], state["service"]
        steps = self.size.steps
        phase = Phase()
        sim_ms = []
        instr0, macs0 = sim.stats.instructions_executed, sim.stats.macs
        end = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < end:
            xs = self._inputs(_TIMED, i, model)
            rec.request = i
            t0 = time.perf_counter()
            outs = served.run_sequence(xs, sim=sim, compiled=True)
            modelled = service.invoke(steps)
            dt = time.perf_counter() - t0
            rec.request = None
            phase.call_s.append(dt)
            phase.call_requests.append(1)
            phase.add_unit(dt, 1)
            sim_ms.append(modelled.total_ms)
            phase.digests.append(digest(outs))
            if i < self.check_prefix:
                phase.samples.append((xs, outs))
            i += 1
        phase.requests = i
        phase.sim = {"sim_request_ms_p50": median(sim_ms)}
        phase.layers = {
            "functional.instructions_per_request":
                (sim.stats.instructions_executed - instr0) / i,
            "functional.macs_per_request": (sim.stats.macs - macs0) / i,
        }
        return phase

    def check(self, state, phase: Phase) -> int:
        # State carries across requests on the pinned simulator, so the
        # reference replays the warm-ups and then the timed prefix.
        model = state["model"]
        ref = model.new_simulator()
        for k in range(self.warmups):
            model.run_sequence(self._inputs(_WARM, k, model), sim=ref)
        bad = 0
        for xs, outs in phase.samples:
            if not _same(model.run_sequence(xs, sim=ref), outs):
                bad += 1
        return bad

    def layers(self, rec, state, phase, monitors):
        run_ms = median(rec.durations("replay.run_sequence",
                                      timed=True)) * 1e3
        return {
            "compiler.compile_s": sum(
                rec.durations("compiler.compile_lstm")),
            "functional.pin_weights_s": sum(
                rec.durations("functional.new_simulator")),
            "replay.first_run_s": state["first_run_s"],
            "replay.run_ms_p50": run_ms,
            "replay.ms_per_step": run_ms / self.size.steps,
            "microservice.invoke_ms_p50": median(
                rec.durations("microservice.invoke", timed=True)) * 1e3,
            "timing.first_latency_ms": _first_ms(
                rec, "timing.compute_latency_s"),
        }


def _first_ms(rec: SpanRecorder, name: str) -> float:
    durations = rec.durations(name)
    return durations[0] * 1e3 if durations else 0.0


# ---------------------------------------------------------------------------
# b16-lstm1024: batched BFP replay, 16 clients in lockstep
# ---------------------------------------------------------------------------

class Batch16Lstm(Workload):
    name = "b16-lstm1024"
    sizes = {"full": Size(hidden=1024, steps=25),
             "tiny": Size(hidden=128, steps=5)}
    batch = 16

    def _round(self, stream: int, index: int, model):
        return [request_inputs(self.seed, stream,
                               index * self.batch + r, self.size.steps,
                               model.input_length)
                for r in range(self.batch)]

    def setup(self, rec: SpanRecorder):
        with rec.span("compiler.compile_lstm"):
            model = compile_lstm(LstmReference(hidden_dim=self.size.hidden,
                                               seed=7), BW_S10,
                                 name=f"lstm{self.size.hidden}")
        served = (TracedCompiledModel.wrap(model, rec) if rec.enabled
                  else model)
        sim = served.new_simulator()
        # Batched runs never mutate the base simulator, so one warm-up
        # round compiles the only plan the timed rounds use.
        served.run_sequence_batched(self._round(_WARM, 0, model), sim=sim)
        return {"model": model, "served": served, "sim": sim}

    def run(self, state, seconds: float, rec: SpanRecorder) -> Phase:
        model, served, sim = state["model"], state["served"], state["sim"]
        phase = Phase()
        end = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < end:
            xb = self._round(_TIMED, rounds, model)
            rec.request = rounds * self.batch
            t0 = time.perf_counter()
            outs = served.run_sequence_batched(xb, sim=sim)
            dt = time.perf_counter() - t0
            rec.request = None
            phase.call_s.append(dt)
            phase.call_requests.append(self.batch)
            phase.add_unit(dt, self.batch)
            phase.digests.extend(digest(o) for o in outs)
            if rounds == 0:
                phase.samples.append((xb[0], outs[0]))
            rounds += 1
        phase.samples.append((xb[-1], outs[-1]))
        phase.requests = rounds * self.batch
        return phase

    def check(self, state, phase: Phase) -> int:
        # Each batched round starts from fresh recurrent state: compare
        # against a sequential compiled run on a fresh simulator.
        model = state["model"]
        return sum(
            not _same(model.run_sequence(xs, sim=model.new_simulator(),
                                         compiled=True), outs)
            for xs, outs in phase.samples)

    def layers(self, rec, state, phase, monitors):
        round_ms = median(rec.durations("replay.run_sequence_batched",
                                        timed=True)) * 1e3
        return {
            "compiler.compile_s": sum(
                rec.durations("compiler.compile_lstm")),
            "functional.pin_weights_s": sum(
                rec.durations("functional.new_simulator")),
            "replay.batched_round_ms_p50": round_ms,
            "replay.batched_ms_per_request_step":
                round_ms / (self.batch * self.size.steps),
        }


# ---------------------------------------------------------------------------
# serve-gru512: open-loop Poisson trace through the dynamic batcher
# ---------------------------------------------------------------------------

class ServeGru(Workload):
    name = "serve-gru512"
    #: The arrival trace has a seed of its own, so that every workload
    #: seed forms the same batches and does the same host work;
    #: ``--seed`` picks the request inputs.
    trace_seed = 0
    sizes = {"full": Size(hidden=512, steps=25, requests=48),
             "tiny": Size(hidden=128, steps=5, requests=16)}
    #: Arrival rate as a multiple of the node's batch-1 capacity.
    load = 2.5
    #: SLO as a multiple of the modelled batch-1 request time.
    slo_multiple = 8.0
    max_batch = 16

    def _inputs(self, index: int, model) -> List[np.ndarray]:
        return request_inputs(self.seed, _TIMED, index, self.size.steps,
                              model.input_length)

    def setup(self, rec: SpanRecorder):
        size = self.size
        with rec.span("compiler.compile_gru"):
            model = compile_gru(GruReference(hidden_dim=size.hidden,
                                             seed=7), BW_S10,
                                name=f"gru{size.hidden}")
        node = make_node("serve", model, rec)
        node.set_batch_curve(BATCH_CURVE.relative)
        service = ServingProxy("gru", node, recorder=rec)
        t1 = service.invoke_batched(size.steps, batch=1).total_s
        arrivals = poisson_arrivals(self.load / t1, size.requests,
                                    seed=self.trace_seed)
        warm = [request_inputs(self.seed, _WARM, k, size.steps,
                               model.input_length) for k in range(2)]
        service.invoke_batched(size.steps, functional_inputs=warm)
        service.call_s.clear()
        return {"model": model, "service": service, "t1": t1,
                "arrivals": arrivals}

    def run(self, state, seconds: float, rec: SpanRecorder) -> Phase:
        model, service = state["model"], state["service"]
        slo_s = self.slo_multiple * state["t1"]
        n = self.size.requests
        phase = Phase()
        end = time.perf_counter() + seconds
        passes = 0
        first = None
        while passes == 0 or time.perf_counter() < end:
            inputs = [self._inputs(passes * n + k, model)
                      for k in range(n)]
            batcher = DynamicBatcher(
                BatchPolicy(max_batch=self.max_batch,
                            timeout_s=state["t1"]),
                service=service,
                adaptive=AdaptiveBatchPolicy(slo_s,
                                             max_batch=self.max_batch))
            calls = len(service.call_s)
            rec.request = passes * n
            t0 = time.perf_counter()
            with rec.span("batching.run"):
                res = batcher.run(state["arrivals"], steps=self.size.steps,
                                  inputs=inputs)
            dt = time.perf_counter() - t0
            rec.request = None
            phase.add_unit(dt, n)
            phase.call_s.extend(service.call_s[calls:])
            phase.call_requests.extend(res.batch_sizes)
            phase.digests.extend(digest(o) for o in res.outputs)
            sim = _serve_sim(res, slo_s)
            if first is None:
                first = sim
            elif sim != first:
                # One seed, one trace, one fixed curve: every pass must
                # form the same batches.
                phase.failed += n
            if passes == 0:
                phase.samples += [(inputs[k], res.outputs[k])
                                  for k in (0, n // 2)]
            passes += 1
        phase.samples.append((inputs[-1], res.outputs[-1]))
        phase.requests = passes * n
        phase.sim = {key: first[key] for key in
                     ("sim_request_ms_p50", "sim_request_ms_p99",
                      "sim_goodput_rps")}
        phase.layers = {key: first[key] for key in first
                        if key.startswith("batching.")}
        return phase

    def check(self, state, phase: Phase) -> int:
        model = state["model"]
        reference = HardwareMicroservice("ref", FpgaNode("ref", model))
        bad = 0
        for xs, outs in phase.samples:
            seq = reference.invoke(self.size.steps, functional_inputs=xs)
            bad += not _same(seq.outputs, outs)
        return bad

    def layers(self, rec, state, phase, monitors):
        invoke_self = rec.self_times("microservice.invoke_batched",
                                     timed=True)
        runs = rec.durations("batching.run", timed=True)
        invokes = rec.durations("microservice.invoke_batched", timed=True)
        dispatches = len(invokes)
        return {
            "compiler.compile_s": sum(
                rec.durations("compiler.compile_gru")),
            "functional.batched_dispatch_ms_p50": median(
                rec.durations("node.run_functional_batched",
                              timed=True)) * 1e3,
            "microservice.invoke_batched_self_ms_p50":
                median(invoke_self) * 1e3,
            "batching.self_ms_per_dispatch":
                (sum(runs) - sum(invokes)) / max(dispatches, 1) * 1e3,
            "timing.first_latency_ms": _first_ms(
                rec, "timing.compute_latency_s"),
        }


def _serve_sim(res, slo_s: float) -> Dict[str, float]:
    targets = [t for _, t in res.target_trace]
    return {
        "sim_request_ms_p50": res.p50_ms,
        "sim_request_ms_p99": res.p99_ms,
        "sim_goodput_rps": res.goodput_rps(slo_s),
        "batching.dispatches": float(len(res.batch_sizes)),
        "batching.mean_batch": res.mean_batch,
        "batching.queue_wait_ms_p50": res.percentile_queue_wait(50) * 1e3,
        "batching.queue_wait_ms_p99": res.percentile_queue_wait(99) * 1e3,
        "batching.target_changes": float(sum(
            a != b for a, b in zip(targets, targets[1:]))),
    }


# ---------------------------------------------------------------------------
# fleet-sim: the two cluster data planes and the telemetry plane
# ---------------------------------------------------------------------------

class FleetSim(Workload):
    name = "fleet-sim"
    sizes = {"full": Size(hidden=0, steps=0, requests=300_000),
             "tiny": Size(hidden=0, steps=0, requests=20_000)}
    scenario = "rack_loss"
    #: The chaos scenario has a seed of its own: its trace length, and
    #: with it the monitor's fixed cost per request, depend on the seed,
    #: which would make host work differ between workload seeds.
    #: ``--seed`` picks the batched plane's trace and routing.
    scenario_seed = 0
    #: Diurnal trace rates as shares of the batched fleet's capacity.
    base_load, peak_load = 0.15, 0.6

    def _batched_plane(self, spec: ClusterSpec, requests: int):
        curve = BATCH_CURVE.scaled(spec.service_time_s)
        batching = NodeBatching(curve, max_batch=16,
                                timeout_s=spec.service_time_s)
        capacity = spec.num_nodes * 16 / curve(16)
        mean_rate = 0.5 * (self.base_load + self.peak_load) * capacity
        duration = requests / mean_rate
        arrivals = diurnal_arrivals(self.base_load * capacity,
                                    self.peak_load * capacity, duration,
                                    period_s=duration, seed=self.seed)
        autoscaler = AutoscalePolicy(min_nodes=2, target_utilization=0.6,
                                     interval_s=duration / 50)
        return batching, autoscaler, arrivals

    def _simulator(self, state) -> ClusterSimulator:
        return ClusterSimulator(state["spec"], batching=state["batching"],
                                autoscaler=state["autoscaler"],
                                seed=self.seed + 1)

    def setup(self, rec: SpanRecorder):
        spec = ClusterSpec()
        t0 = time.perf_counter()
        with rec.span("loadgen.diurnal_arrivals"):
            batching, autoscaler, arrivals = self._batched_plane(
                spec, self.size.requests)
        state = {"spec": spec, "batching": batching,
                 "autoscaler": autoscaler, "arrivals": arrivals,
                 "trace_build_s": time.perf_counter() - t0}
        # Warm-up at a small scale: first calls into both planes.
        warm = 5_000
        run_monitored_scenario(self.scenario, spec, requests=warm,
                               seed=self.scenario_seed)
        _, _, warm_arrivals = self._batched_plane(spec, warm)
        self._simulator(state).run(warm_arrivals)
        return state

    def run(self, state, seconds: float, rec: SpanRecorder) -> Phase:
        phase = Phase()
        end = time.perf_counter() + seconds
        passes = 0
        first = None
        while passes == 0 or time.perf_counter() < end:
            rec.request = passes
            t0 = time.perf_counter()
            with rec.span("monitor.run_monitored_scenario"):
                mon = run_monitored_scenario(
                    self.scenario, state["spec"],
                    requests=self.size.requests,
                    seed=self.scenario_seed)
            t1 = time.perf_counter()
            if rec.enabled:
                # The same scenario without the monitor, right after the
                # monitored one and outside the timed pass, for
                # monitor.overhead_s.
                with rec.span("cluster.run_chaos_scenario"):
                    run_chaos_scenario(self.scenario, state["spec"],
                                       requests=self.size.requests,
                                       seed=self.scenario_seed)
            t2 = time.perf_counter()
            with rec.span("cluster.run_batched_plane"):
                batched = self._simulator(state).run(state["arrivals"])
            pass_s = (t1 - t0) + (time.perf_counter() - t2)
            rec.request = None
            served = mon.result.total + batched.total
            phase.add_unit(pass_s, served)
            phase.call_s.append(pass_s)
            phase.call_requests.append(served)
            fingerprint = (_cluster_digest(mon.result),
                           _cluster_digest(batched))
            phase.digests.append("/".join(fingerprint))
            if first is None:
                first = fingerprint
                phase.sim = _fleet_sim(mon.result)
                phase.layers = _fleet_layers(mon, batched)
                phase.samples.append((mon, batched))
            elif fingerprint != first:
                phase.failed += served
            passes += 1
        phase.requests = sum(phase.call_requests)
        return phase

    def check(self, state, phase: Phase) -> int:
        # Monitoring is observation-only: the bare scenario on the same
        # seed must produce the identical outcome.
        mon, batched = phase.samples[0]
        bare = run_chaos_scenario(self.scenario, state["spec"],
                                  requests=self.size.requests,
                                  seed=self.scenario_seed)
        bad = 0
        if _cluster_digest(bare) != _cluster_digest(mon.result):
            bad += mon.result.total
        for res in (mon.result, batched):
            if sum(res.counts().values()) != res.total:
                bad += res.total
        return bad

    def layers(self, rec, state, phase, monitors):
        monitored = rec.durations("monitor.run_monitored_scenario",
                                  timed=True)
        bare = rec.durations("cluster.run_chaos_scenario", timed=True)
        batched = rec.durations("cluster.run_batched_plane", timed=True)
        mon, batched_result = phase.samples[0]
        unbatched_s, batched_s = median(bare), median(batched)
        return {
            "loadgen.trace_build_s": state["trace_build_s"] + median(
                rec.durations("loadgen.build_scenario", timed=True)),
            "cluster.unbatched_run_s": unbatched_s,
            "cluster.batched_run_s": batched_s,
            "cluster.unbatched_req_per_s":
                mon.result.total / unbatched_s if unbatched_s else 0.0,
            "cluster.batched_req_per_s":
                batched_result.total / batched_s if batched_s else 0.0,
            "monitor.overhead_s": median(
                [m - b for m, b in zip(monitored, bare)]),
            "monitor.scrapes": float(monitors[-1].scrapes
                                     if monitors else 0),
        }


def _cluster_digest(result) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(result.status).tobytes())
    h.update(np.ascontiguousarray(result.latency_s).tobytes())
    return h.hexdigest()


def _fleet_sim(res) -> Dict[str, float]:
    return {
        "sim_request_ms_p50": res.p50_ms,
        "sim_request_ms_p99": res.p99_ms,
        "sim_goodput_rps": res.goodput_rps,
        "sim_availability": res.availability,
    }


def _fleet_layers(mon, batched) -> Dict[str, float]:
    counts = mon.result.counts()
    layers = {f"cluster.{key}": float(counts[key]) for key in
              ("served", "brownout", "timeout", "failed")}
    layers["cluster.shed"] = float(mon.result.shed)
    layers["cluster.batched_mean_batch"] = batched.mean_batch
    layers["cluster.active_nodes_max"] = float(
        max(n for _, n in batched.active_nodes_trace))
    layers["obs.incidents"] = float(len(mon.incidents))
    return layers


WORKLOADS = {cls.name: cls for cls in
             (Batch1Lstm, Batch16Lstm, ServeGru, FleetSim)}

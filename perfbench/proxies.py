"""Thin forwarding proxies that put host-time spans on the program's
layer boundaries from outside ``src/``.

Each proxy subclasses the public class it stands in for and only wraps
the inherited method in a span, so outputs are those of the real class
(``test_perfbench.py`` checks this).  Module-level names that the
program looks up at call time (``compile_plan``, the chaos scenario
builders, ``FleetMonitor``, ``ClusterSimulator``) are swapped for
wrapped ones by :func:`instrument` for the traced run only, and put
back when it ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Iterator, List

from repro.compiler.lowering import CompiledModel
from repro.system.cluster import ClusterSimulator
from repro.system.microservice import FpgaNode, HardwareMicroservice
from repro.system.monitor import FleetMonitor

from .core import SpanRecorder


class TracedCompiledModel(CompiledModel):
    """A :class:`CompiledModel` whose pinning and replay calls open
    spans.  The compiled program's own internal calls
    (``run_sequence_batched`` pinning a fresh simulator) go through
    the overrides too."""

    recorder: SpanRecorder

    @classmethod
    def wrap(cls, model: CompiledModel,
             recorder: SpanRecorder) -> "TracedCompiledModel":
        traced = cls(**{f.name: getattr(model, f.name)
                        for f in dataclasses.fields(model)})
        traced.recorder = recorder
        return traced

    def new_simulator(self, *args, **kwargs):
        with self.recorder.span("functional.new_simulator"):
            return super().new_simulator(*args, **kwargs)

    def run_sequence(self, *args, **kwargs):
        with self.recorder.span("replay.run_sequence"):
            return super().run_sequence(*args, **kwargs)

    def run_sequence_batched(self, *args, **kwargs):
        with self.recorder.span("replay.run_sequence_batched"):
            return super().run_sequence_batched(*args, **kwargs)


class TracedFpgaNode(FpgaNode):
    """An :class:`FpgaNode` whose timing-model and functional
    execution calls open spans."""

    recorder: SpanRecorder

    def compute_latency_s(self, steps: int) -> float:
        with self.recorder.span("timing.compute_latency_s"):
            return super().compute_latency_s(steps)

    def run_functional(self, *args, **kwargs):
        with self.recorder.span("node.run_functional"):
            return super().run_functional(*args, **kwargs)

    def run_functional_batched(self, *args, **kwargs):
        with self.recorder.span("node.run_functional_batched"):
            return super().run_functional_batched(*args, **kwargs)


class ServingProxy(HardwareMicroservice):
    """A :class:`HardwareMicroservice` that times every call it serves.

    ``call_s`` keeps the host duration of each ``invoke`` /
    ``invoke_batched`` call in both runs (it is the serving call whose
    time ``request_ms_p50`` reports); with an enabled recorder the call
    is also a span."""

    def __init__(self, *args, recorder: SpanRecorder, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = recorder
        self.call_s: List[float] = []

    def invoke(self, *args, **kwargs):
        with self.recorder.span("microservice.invoke"):
            t0 = time.perf_counter()
            result = super().invoke(*args, **kwargs)
            self.call_s.append(time.perf_counter() - t0)
        return result

    def invoke_batched(self, *args, **kwargs):
        with self.recorder.span("microservice.invoke_batched",
                                batch=kwargs.get("batch")):
            t0 = time.perf_counter()
            result = super().invoke_batched(*args, **kwargs)
            self.call_s.append(time.perf_counter() - t0)
        return result


def make_node(name: str, model: CompiledModel,
              recorder: SpanRecorder) -> FpgaNode:
    """A plain node, or a traced one when ``recorder`` is enabled."""
    if not recorder.enabled:
        return FpgaNode(name, model)
    node = TracedFpgaNode(name, TracedCompiledModel.wrap(model, recorder))
    node.recorder = recorder
    return node


@contextlib.contextmanager
def instrument(recorder: SpanRecorder,
               counters: Dict[str, int]) -> Iterator[List[FleetMonitor]]:
    """Swap the looked-up-at-call-time names for traced wrappers.

    Counts plan compilations in ``counters["plans_compiled"]`` and
    yields the list of fleet monitors created meanwhile (their
    ``scrapes`` count is public).  Does nothing for a disabled
    recorder.
    """
    monitors: List[FleetMonitor] = []
    if not recorder.enabled:
        yield monitors
        return
    from repro.functional import replay
    from repro.system import chaos, monitor

    compile_plan = replay.compile_plan

    def traced_compile_plan(*args, **kwargs):
        counters["plans_compiled"] = counters.get("plans_compiled", 0) + 1
        with recorder.span("replay.compile_plan"):
            return compile_plan(*args, **kwargs)

    class TracedFleetMonitor(FleetMonitor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            monitors.append(self)

    class TracedClusterSimulator(ClusterSimulator):
        def run(self, *args, **kwargs):
            name = ("cluster.run_batched" if self.batching is not None
                    else "cluster.run")
            with recorder.span(name):
                return super().run(*args, **kwargs)

    builders = dict(chaos.SCENARIOS)

    def traced_builder(build):
        def wrapper(*args, **kwargs):
            with recorder.span("loadgen.build_scenario"):
                return build(*args, **kwargs)
        return wrapper

    saved = (replay.compile_plan, monitor.FleetMonitor,
             chaos.ClusterSimulator)
    replay.compile_plan = traced_compile_plan
    monitor.FleetMonitor = TracedFleetMonitor
    chaos.ClusterSimulator = TracedClusterSimulator
    chaos.SCENARIOS.update({name: traced_builder(build)
                            for name, build in builders.items()})
    try:
        yield monitors
    finally:
        (replay.compile_plan, monitor.FleetMonitor,
         chaos.ClusterSimulator) = saved
        chaos.SCENARIOS.update(builders)

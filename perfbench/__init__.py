"""The repository's benchmark: four workloads over the NPU simulator and
its serving stack, host-time and simulated-time metrics, a traced run
for per-layer numbers, and a compare mode.  ``perfbench/run.py`` is the
entry point; ``perfbench/README.md`` explains the workloads and metrics.
"""

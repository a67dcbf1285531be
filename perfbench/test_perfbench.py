"""The benchmark's own tests (run with ``python3 -m pytest perfbench``).

Tiny sizes keep each case to a few seconds.  ``seconds=0`` makes a
timed phase serve exactly one unit (request, round or pass), so the
in-process cases do a fixed amount of work.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import core  # noqa: E402
from perfbench.proxies import instrument  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _run(tmp_path, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--size", "tiny", "--seconds", "0.3",
         "--results", str(tmp_path), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def _phase(name, traced, seed=3):
    workload = WORKLOADS[name]("tiny", seed)
    rec = core.SpanRecorder(enabled=traced)
    counters = {}
    with instrument(rec, counters):
        state = workload.setup(rec)
        phase = workload.run(state, 0.0, rec)
    return workload, state, phase, rec


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(core.WORKLOAD_NAMES) == list(WORKLOADS)
    for key, catalogue in (("end_to_end", core.END_TO_END),
                           ("per_layer", core.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in spec[key]} == catalogue


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", core.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(tmp_path, name, trace):
    out = _run(tmp_path, "--workload", name, "--seed", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = core.PER_LAYER if trace else core.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    text = "\n".join(lines[:-1])
    for metric, (unit, _) in catalogue.items():
        assert result["metrics"][metric]["unit"] == unit
        assert metric in text
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in catalogue)
    assert "succeeded" in text


@pytest.mark.parametrize("name", core.WORKLOAD_NAMES)
def test_same_seed_repeats_exactly(name):
    _, _, first, _ = _phase(name, traced=False)
    _, _, second, _ = _phase(name, traced=False)
    assert first.requests == second.requests
    assert first.call_requests == second.call_requests
    assert first.failed == second.failed == 0
    assert first.sim == second.sim
    assert first.layers == second.layers
    assert first.digests == second.digests


@pytest.mark.parametrize("name", core.WORKLOAD_NAMES)
def test_proxies_leave_outputs_unchanged(name):
    workload, state, plain, _ = _phase(name, traced=False)
    _, traced_state, traced, rec = _phase(name, traced=True)
    assert rec.tracer.spans, "the traced run recorded no spans"
    assert traced.digests == plain.digests
    assert traced.sim == plain.sim
    assert traced.layers == plain.layers
    assert workload.check(traced_state, traced) == 0


@pytest.mark.parametrize("name", core.WORKLOAD_NAMES)
def test_outputs_match_reference(name):
    workload, state, phase, _ = _phase(name, traced=False)
    assert workload.check(state, phase) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-sim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_compare_flags_a_regression(tmp_path, capsys):
    from perfbench.compare import compare

    def record(directory, seed, rps, sim):
        directory.mkdir(exist_ok=True)
        payload = {
            "provenance": {"workload": "b1-lstm1024", "seed": seed,
                           "trace": False},
            "end_to_end": {"requests_per_s": rps, "setup_s": 1.0,
                           "peak_rss_mb": 100.0},
            "sim": {"sim_request_ms_p50": sim},
        }
        (directory / f"run{seed}.json").write_text(json.dumps(payload))

    for seed in range(3):
        record(tmp_path / "a", seed, 100.0, 0.5)
        record(tmp_path / "b", seed, 99.0, 0.5)
        record(tmp_path / "c", seed, 50.0, 0.6)
    bench = os.path.join(ROOT, "BENCHMARK.json")
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")], bench) == 0
    assert compare([str(tmp_path / "a"), str(tmp_path / "c")], bench) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "DIFFER" in out

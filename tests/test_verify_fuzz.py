"""Differential fuzzer: campaigns, corpus replay, shrinking."""

import dataclasses
import json
import pathlib
import warnings

import numpy as np
import pytest

import repro.functional.ops as ops
from repro.errors import ReproError
from repro.isa import InstructionChain, MemId, v_rd, v_wr
from repro.isa.assembler import format_program
from repro.isa.opcodes import Opcode
from repro.isa.program import NpuProgram
from repro.verify import (CaseInvalid, PROFILES, generate_case,
                          load_corpus_case, replay_corpus,
                          run_differential, run_fuzz, save_case,
                          shrink_case)

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


# -- tier-1: small campaigns and corpus replay ----------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_small_campaign_per_profile(profile):
    report = run_fuzz(seed=100, iterations=8, profile=PROFILES[profile])
    assert report.ok, report.render()
    assert report.invalid == 0
    assert report.cases_run == 8


@pytest.mark.tier1
def test_mvm_campaign_reaches_hoisted_plans():
    """Loops may repeat network reads, so fuzz programs contain mv_mul
    groups whose head is a fresh network input every iteration: the
    compiled plans hoist them, and all four engines still agree."""
    report = run_fuzz(seed=0, iterations=60, profile=PROFILES["mvm"])
    assert report.ok, report.render()
    assert report.invalid == 0
    assert report.hoisted_cases > 0, report.render()


@pytest.mark.tier1
def test_folded_netq_reads_keep_the_queue_balanced():
    """A loop over network reads queues the inputs its extra iterations
    pop: no generated case underflows or ends with the queue short."""
    from repro.isa.program import Loop
    looped = 0
    for seed in range(60):
        case = generate_case(seed, profile=PROFILES["memory"])
        looped += any(
            isinstance(item, Loop) and any(
                c.instructions[0].mem_id is MemId.NetQ for c in item.body)
            for item in case.program.items)
        result = run_differential(case, check_timing=False)
        assert result.ok, (seed, result.mismatches)
    assert looped > 0


@pytest.mark.tier1
def test_committed_corpus_replays_clean():
    report = replay_corpus(CORPUS_DIR)
    assert report.cases_run >= 6
    assert report.ok, report.render()


@pytest.mark.tier1
def test_replay_missing_directory_is_an_error(tmp_path):
    with pytest.raises(ReproError, match="corpus directory not found"):
        replay_corpus(tmp_path / "no-such-dir")
    # An existing empty directory, by contrast, replays cleanly.
    empty = tmp_path / "empty"
    empty.mkdir()
    report = replay_corpus(empty)
    assert report.ok and report.cases_run == 0


@pytest.mark.tier1
def test_corpus_roundtrip_bit_exact(tmp_path):
    case = generate_case(21)
    path = save_case(case, tmp_path)
    back = load_corpus_case(path)
    assert back.config == case.config
    assert format_program(back.program) == format_program(case.program)
    for mem in case.vrf_init:
        assert np.array_equal(case.vrf_init[mem], back.vrf_init[mem])
    for field in ("dram_vectors", "dram_tiles", "netq_vectors",
                  "netq_tiles"):
        assert np.array_equal(getattr(case, field), getattr(back, field))
    # Serialization is deterministic: same case, same bytes.
    assert path.read_text() == save_case(back, tmp_path / "b.json") \
        .read_text()


@pytest.mark.tier1
def test_corpus_rejects_unknown_format(tmp_path):
    from repro.errors import ReproError
    from repro.verify import case_from_json, case_to_json
    data = case_to_json(generate_case(5))
    data["format"] = 99
    with pytest.raises(ReproError):
        case_from_json(data)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(case_to_json(generate_case(5))))
    assert load_corpus_case(path).program is not None


@pytest.mark.tier1
def test_case_invalid_when_all_engines_agree_on_error():
    case = generate_case(2)
    broken = NpuProgram((InstructionChain(
        [v_rd(MemId.Dram, 4000), v_wr(MemId.NetQ)]),), name="broken")
    case = dataclasses.replace(case, program=broken)
    with pytest.raises(CaseInvalid):
        run_differential(case)


# -- tier-1: the injected-bug demo ----------------------------------------

@pytest.mark.tier1
def test_injected_executor_bug_is_caught_and_shrunk(monkeypatch):
    """Acceptance demo: a deliberate off-by-constant in the executor's
    vv_add kernel is detected by the differential runner and shrunk to a
    <= 3-instruction reproducer."""
    orig = ops.BINARY_KERNELS[Opcode.VV_ADD]

    def buggy(a, b, exact=False):
        return orig(a, b, exact=exact) + np.float32(0.25)

    monkeypatch.setitem(ops.BINARY_KERNELS, Opcode.VV_ADD, buggy)
    report = run_fuzz(seed=0, iterations=25, check_timing=False)
    assert not report.ok, "injected bug went undetected"
    failure = report.failures[0]
    assert failure.case.instruction_count() <= 3, \
        format_program(failure.case.program)
    assert any("vv_add" in line
               for line in format_program(failure.case.program)
               .splitlines())


@pytest.mark.tier1
def test_injected_bug_archived_to_corpus(monkeypatch, tmp_path):
    orig = ops.BINARY_KERNELS[Opcode.VV_MUL]

    def buggy(a, b, exact=False):
        return orig(a, b, exact=exact) * np.float32(1.0000001)

    monkeypatch.setitem(ops.BINARY_KERNELS, Opcode.VV_MUL, buggy)
    report = run_fuzz(seed=0, iterations=40, check_timing=False,
                      corpus_dir=str(tmp_path),
                      profile=PROFILES["pointwise"])
    assert not report.ok
    archived = sorted(tmp_path.glob("*.json"))
    assert archived, "failing case was not archived"
    # The archive replays to the same failure while the bug is in place.
    replayed = run_differential(load_corpus_case(archived[0]),
                                check_timing=False)
    assert not replayed.ok


@pytest.mark.tier1
def test_injected_compiled_path_bug_is_caught_and_shrunk(monkeypatch):
    """A bug confined to the compiled replay path — the interpreter and
    both sequential simulator paths are untouched — is detected by the
    four-way differential and shrunk to a small reproducer."""
    from repro.functional.replay import _MvGroup
    orig = _MvGroup.compute

    def buggy(self, sim, value):
        orig(self, sim, value)
        self.outputs = tuple(out + np.float32(0.125) for out in self.outputs)

    monkeypatch.setattr(_MvGroup, "compute", buggy)
    report = run_fuzz(seed=0, iterations=25, check_timing=False)
    assert not report.ok, "compiled-path bug went undetected"
    failure = report.failures[0]
    assert any("compiled" in m or "batched" in m
               for m in failure.mismatches), failure.mismatches
    assert failure.case.instruction_count() <= 4, \
        format_program(failure.case.program)


@pytest.mark.tier1
def test_divergence_report_names_the_differing_element():
    """Equal infs and matching NaNs are not divergences: the report
    points at the element that differs, without arithmetic warnings."""
    from repro.verify.differential import _compare_arrays
    inf, nan = np.inf, np.nan
    cases = [([inf, 1.0], [inf, 2.0], "(1,)"),
             ([nan, -inf, 1.0], [nan, -inf, 3.0], "(2,)"),
             ([inf, 5.0, 1.0], [inf, 5.0, nan], "(2,)"),
             ([[1.0, -inf], [0.0, 4.0]], [[1.0, -inf], [0.0, 8.0]],
              "(1, 1)")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, where in cases:
            out = []
            _compare_arrays("x", np.array(a, np.float32),
                            np.array(b, np.float32), out)
            assert len(out) == 1 and f"divergence at {where}:" in out[0], \
                out
        out = []
        _compare_arrays("x", np.array([inf, nan]), np.array([inf, nan]),
                        out)
        assert out == []


@pytest.mark.tier1
def test_shrink_keeps_failure_and_reduces_size():
    case = generate_case(9)
    baseline = case.instruction_count()

    def pretend_failing(candidate):
        # "Fails" iff the program still contains a vector chain; the
        # shrinker must keep one while deleting everything else.
        return any(not c.is_matrix_chain for c in candidate.program
                   .chains())

    shrunk = shrink_case(case, pretend_failing)
    assert pretend_failing(shrunk)
    assert shrunk.instruction_count() < baseline
    assert shrunk.instruction_count() <= 4


# -- opt-in: the bounded CI fuzz gate -------------------------------------

@pytest.mark.fuzz
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_fuzz_gate(profile):
    """Bounded fixed-seed campaign per profile (the CI fuzz step)."""
    report = run_fuzz(seed=0, iterations=60, profile=PROFILES[profile])
    assert report.ok, report.render()


@pytest.mark.fuzz
def test_fuzz_gate_pinned_configs():
    from repro.verify import FUZZ_CONFIGS
    for name in sorted(FUZZ_CONFIGS):
        report = run_fuzz(seed=7, iterations=25,
                          config=FUZZ_CONFIGS[name])
        assert report.ok, f"{name}: {report.render()}"

"""Compiled replay vs. interpreter: bit-equality across models/configs.

The compiled path (``run(compiled=True)`` / :mod:`repro.functional.replay`)
is a pure performance optimization: outputs, architectural snapshots,
execution statistics, per-memory access counters, trace spans, and
metrics counters must all be bit-identical to the vectorized
interpreter. Batched replay must likewise match per-request sequential
compiled runs exactly. These tests pin that contract for LSTM/GRU
models on narrow-mantissa (mb=2) and wide-mantissa (mb=5) formats, in
observed (traced) and unobserved modes, and across batch sizes.
Sequence-hoisted input projections (one GEMM over time per batch-1 run)
are held to the same contract, with their legality rules and run-time
fallbacks.
"""

import numpy as np
import pytest

from repro.compiler import compile_gru, compile_lstm
from repro.config import BW_S10, NpuConfig
from repro.errors import NetworkQueueEmptyError, UnbatchablePlanError
from repro.functional.kernels import MvmKernel
from repro.functional.replay import BatchedReplay, _MvGroup
from repro.isa import MemId, ProgramBuilder, ScalarReg
from repro.models import GruReference, LstmReference
from repro.obs import Metrics, Tracer

MB2 = NpuConfig(name="replay_mb2", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=2)
MB5 = NpuConfig(name="replay_mb5", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=5)
#: Sub-block Microscaling format: 32-wide E8M0-scaled blocks.
MX4 = NpuConfig(name="replay_mx4", native_dim=128, lanes=4,
                tile_engines=2, mrf_size=256, mantissa_bits=3,
                exponent_bits=8, bfp_block_size=32, scale_encoding="e8m0")

_COMPILERS = {"lstm": (LstmReference, compile_lstm),
              "gru": (GruReference, compile_gru)}


def _compiled_model(kind, hidden, cfg, seed=3):
    model_cls, comp_fn = _COMPILERS[kind]
    return comp_fn(model_cls(hidden_dim=hidden, input_dim=hidden,
                             seed=seed), cfg)


def _inputs(n, steps, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, n).astype(np.float32)
            for _ in range(steps)]


def _assert_state_equal(a, b, label):
    """Recursive bit-equality over snapshot dicts (arrays, lists,
    nested dicts, scalars)."""
    assert type(a) is type(b), (label, type(a), type(b))
    if isinstance(a, dict):
        assert a.keys() == b.keys(), (label, a.keys(), b.keys())
        for k in a:
            _assert_state_equal(a[k], b[k], f"{label}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), (label, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{label}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b, equal_nan=True), label
    else:
        assert a == b, (label, a, b)


def _assert_run_equivalent(compiled, xs, exact=False):
    sim_i = compiled.new_simulator(exact=exact)
    out_i = compiled.run_sequence(xs, sim=sim_i)
    sim_c = compiled.new_simulator(exact=exact)
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)

    assert len(out_i) == len(out_c)
    for a, b in zip(out_i, out_c):
        assert np.array_equal(a, b)
    _assert_state_equal(sim_i.snapshot(), sim_c.snapshot(), "snapshot")
    assert sim_i.stats.__dict__ == sim_c.stats.__dict__
    assert sim_i.mrf.reads == sim_c.mrf.reads
    assert sim_i.mrf.writes == sim_c.mrf.writes
    for mem in sim_i.vrfs:
        assert sim_i.vrfs[mem].reads == sim_c.vrfs[mem].reads, mem
        assert sim_i.vrfs[mem].writes == sim_c.vrfs[mem].writes, mem


# -- sequential compiled vs interpreter ------------------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("kind,hidden,cfg", [
    ("lstm", 300, MB2),
    ("gru", 300, MB2),
    ("lstm", 200, MB5),
], ids=["lstm-mb2", "gru-mb2", "lstm-mb5"])
def test_compiled_matches_interpreter(kind, hidden, cfg):
    compiled = _compiled_model(kind, hidden, cfg)
    xs = _inputs(hidden, 4)
    _assert_run_equivalent(compiled, xs)


@pytest.mark.tier1
def test_compiled_matches_interpreter_exact_mode():
    compiled = _compiled_model("lstm", 300, MB2)
    xs = _inputs(300, 3)
    _assert_run_equivalent(compiled, xs, exact=True)


@pytest.mark.tier1
def test_traced_compiled_matches_interpreter_spans_and_counters():
    """Observed mode: span streams (name/start/end/track/attrs) and every
    metrics counter agree between interpreter and compiled replay."""
    compiled = _compiled_model("lstm", 300, MB2)
    xs = _inputs(300, 3)

    tr_i, me_i = Tracer(), Metrics()
    sim_i = compiled.new_simulator(tracer=tr_i, metrics=me_i)
    out_i = compiled.run_sequence(xs, sim=sim_i)
    tr_c, me_c = Tracer(), Metrics()
    sim_c = compiled.new_simulator(tracer=tr_c, metrics=me_c)
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)

    for a, b in zip(out_i, out_c):
        assert np.array_equal(a, b)

    def key(s):
        return (s.name, s.start, s.end, s.track,
                tuple(sorted(s.attrs.items())))

    assert [key(s) for s in tr_i.spans] == [key(s) for s in tr_c.spans]
    assert {k: c.value for k, c in me_i.counters.items()} == \
           {k: c.value for k, c in me_c.counters.items()}
    assert sim_i._trace_clock == sim_c._trace_clock


# -- batched replay vs sequential compiled ---------------------------------

@pytest.mark.tier1
@pytest.mark.parametrize("batch", [1, 3, 16])
def test_batched_matches_sequential_compiled(batch):
    hidden = 200 if batch == 16 else 300
    compiled = _compiled_model("gru" if batch == 3 else "lstm",
                               hidden, MB2)
    xs = _inputs(hidden, 3)
    # Per-request inputs scaled by distinct powers of two: lossless in
    # float32, so each batched lane must reproduce its sequential twin
    # bit for bit.
    xb = [[(x * 2.0 ** (-(b % 5))).astype(np.float32) for x in xs]
          for b in range(batch)]

    outs_b = compiled.run_sequence_batched(
        xb, sim=compiled.new_simulator())
    assert len(outs_b) == batch
    for b in range(batch):
        sim = compiled.new_simulator()
        seq = compiled.run_sequence(xb[b], sim=sim, compiled=True)
        assert len(outs_b[b]) == len(seq)
        for a, c in zip(outs_b[b], seq):
            assert np.array_equal(a, c), f"request {b}"


@pytest.mark.tier1
def test_batched_exact_mode_matches_sequential():
    compiled = _compiled_model("lstm", 200, MB5)
    xs = _inputs(200, 2)
    xb = [[(x * s).astype(np.float32) for x in xs]
          for s in (1.0, -0.5, 4.0)]
    outs_b = compiled.run_sequence_batched(
        xb, sim=compiled.new_simulator(exact=True))
    for b in range(3):
        sim = compiled.new_simulator(exact=True)
        seq = compiled.run_sequence(xb[b], sim=sim, compiled=True)
        for a, c in zip(outs_b[b], seq):
            assert np.array_equal(a, c), f"request {b}"


# -- forced loopable fallbacks ---------------------------------------------

def _run_batched(compiled, xb, force_fallback=None):
    """Mirror CompiledModel.run_sequence_batched but thread an explicit
    ``force_fallback`` predicate into the BatchedReplay."""
    batch, steps = len(xb), len(xb[0])
    sim = compiled.new_simulator()
    replay = BatchedReplay(sim, compiled.program, batch,
                           bindings={compiled.steps_binding: steps},
                           force_fallback=force_fallback)
    n = compiled.config.native_dim
    entries = compiled.input_vectors_per_step
    for t in range(steps):
        padded = np.zeros((batch, entries * n), dtype=np.float32)
        for r, xs in enumerate(xb):
            x = np.asarray(xs[t], dtype=np.float32).reshape(-1)
            padded[r, :x.shape[0]] = x
        for i in range(entries):
            replay.push_input(padded[:, i * n:(i + 1) * n])
    replay.run()
    per = compiled.output_vectors_per_step
    outputs = [[np.concatenate(vecs[t * per:(t + 1) * per]
                               )[:compiled.output_length]
                for t in range(steps)]
               for vecs in replay.pop_outputs()]
    return replay, outputs


@pytest.mark.tier1
def test_forced_fallback_plan_stays_batchable():
    """Demoting valid chains to loopable interpreted steps keeps the
    plan batchable and records the offending kinds as diagnostics; the
    forced plan bypasses the per-simulator plan cache."""
    compiled = _compiled_model("lstm", 200, MB2)
    sim = compiled.new_simulator()
    bindings = {compiled.steps_binding: 2}
    forced = sim.plan_for(compiled.program, bindings,
                          force_fallback=lambda pos, e: pos % 3 == 1)
    assert forced.batchable
    assert forced.loopable_fallbacks > 0
    assert forced.fallback_steps == forced.loopable_fallbacks
    assert len(forced.fallback_step_kinds) == forced.fallback_steps
    assert all(isinstance(k, str) and k for k in forced.fallback_step_kinds)
    # The cache only ever holds fully compiled plans.
    plain = sim.plan_for(compiled.program, bindings)
    assert plain is not forced
    assert plain.fallback_steps == 0
    assert plain.fallback_step_kinds == ()


@pytest.mark.tier1
def test_forced_fallback_batched_matches_sequential_compiled():
    """Forcing is semantically the identity: a batched replay with every
    third event interpreted must still reproduce per-request sequential
    fully-compiled runs bit for bit."""
    compiled = _compiled_model("gru", 200, MB2)
    xs = _inputs(200, 3)
    scales = (1.0, -0.5, 4.0)
    xb = [[(x * s).astype(np.float32) for x in xs] for s in scales]

    replay, outs = _run_batched(compiled, xb,
                                force_fallback=lambda pos, e: pos % 3 == 1)
    assert replay.plan.loopable_fallbacks > 0
    for b in range(len(scales)):
        sim = compiled.new_simulator()
        seq = compiled.run_sequence(xb[b], sim=sim, compiled=True)
        assert len(outs[b]) == len(seq)
        for got, want in zip(outs[b], seq):
            assert np.array_equal(got, want), f"request {b}"
        _assert_state_equal(replay.snapshot(b), sim.snapshot(),
                            f"snapshot[{b}]")


@pytest.mark.tier1
def test_unbatchable_plan_rejected_with_step_kinds():
    """A broken fallback tail (everything after a definitely-raising
    event) makes the plan unbatchable; BatchedReplay must refuse it
    with a structured error naming the interpreted step kinds."""
    b = ProgramBuilder("broken")
    b.s_wr(ScalarReg.Rows, 0)  # rows < 1 definitely raises
    b.v_rd(MemId.NetQ).v_wr(MemId.InitialVrf, 0)
    program = b.build()
    compiled = _compiled_model("lstm", 200, MB2)
    sim = compiled.new_simulator()
    plan = sim.plan_for(program)
    assert not plan.batchable
    assert plan.fallback_steps > plan.loopable_fallbacks
    with pytest.raises(UnbatchablePlanError) as exc_info:
        BatchedReplay(sim, program, 2)
    exc = exc_info.value
    assert tuple(exc.step_kinds) == tuple(plan.fallback_step_kinds)
    assert "s_wr:Rows" in exc.step_kinds


# -- plan-cache lifecycle --------------------------------------------------

@pytest.mark.tier1
def test_plan_cache_invalidated_on_mrf_rewrite():
    """Regression: rewriting MRF tiles between compiled runs must not
    serve results computed from stale cached weight operands. The
    compiled path keys its per-group operand caches on the MRF
    generation counter, which every tile write bumps."""
    compiled = _compiled_model("lstm", 200, MB2)
    xs = _inputs(200, 2)
    sim_c = compiled.new_simulator()
    sim_v = compiled.new_simulator()
    out_c1 = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    out_v1 = compiled.run_sequence(xs, sim=sim_v)
    for a, b in zip(out_c1, out_v1):
        assert np.array_equal(a, b)

    # Overwrite the first weight tiles on both simulators identically.
    rng = np.random.default_rng(7)
    junk = rng.uniform(-1.0, 1.0,
                       (MB2.native_dim, MB2.native_dim)).astype(np.float32)
    assert sim_c.load_matrix(0, junk) == sim_v.load_matrix(0, junk)

    out_c2 = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    out_v2 = compiled.run_sequence(xs, sim=sim_v)
    for a, b in zip(out_c2, out_v2):
        assert np.array_equal(a, b)
    # The rewrite was observable: stale caches would have reproduced
    # the original trajectory instead.
    assert any(not np.array_equal(a, b)
               for a, b in zip(out_c2, out_v1))


@pytest.mark.tier1
def test_repeated_compiled_runs_reuse_plan():
    """Repeated compiled runs on one simulator hit the per-sim plan
    cache and still track the interpreter bit for bit across the
    carried recurrent state. The cache key includes the entry scalar
    registers, so the key set reaches a fixed point after the second
    run (first run: initial regs; later runs: program-final regs) and
    no further compilation happens."""
    compiled = _compiled_model("gru", 200, MB2)
    xs = _inputs(200, 2)
    sim_c = compiled.new_simulator()
    sim_v = compiled.new_simulator()
    for _ in range(2):
        compiled.run_sequence(xs, sim=sim_c, compiled=True)
        compiled.run_sequence(xs, sim=sim_v)
    plans_after_first = len(sim_c._plans)
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    out_v = compiled.run_sequence(xs, sim=sim_v)
    assert len(sim_c._plans) == plans_after_first
    for a, b in zip(out_c, out_v):
        assert np.array_equal(a, b)
    _assert_state_equal(sim_v.snapshot(), sim_c.snapshot(), "snapshot")


# -- sequence-hoisted input projections ------------------------------------

#: Hoisting configurations: BW_S10 (packed GEMV), mantissa GEMV (mb=5),
#: and a sub-block MX format.
_HOIST_CASES = [("lstm", 450, BW_S10), ("gru", 450, BW_S10),
                ("lstm", 200, MB5), ("gru", 200, MB5),
                ("lstm", 200, MX4)]
_HOIST_IDS = ["lstm-bw_s10", "gru-bw_s10", "lstm-mb5", "gru-mb5",
              "lstm-mx4"]


def _count_sequence_gemms(monkeypatch):
    """Record the group behind every sequence GEMM: a kernel apply over
    more than one input issued by a batch-1 `_MvGroup.compute` (one per
    hoisted group per run; single-step applies have B=1)."""
    calls, current = [], []
    compute, apply = _MvGroup.compute, MvmKernel.apply

    def group_compute(self, sim, value):
        current.append(self)
        try:
            compute(self, sim, value)
        finally:
            current.pop()

    def kernel_apply(self, weights, x):
        if current and x[0].shape[0] > 1:
            calls.append(current[-1])
        return apply(self, weights, x)

    monkeypatch.setattr(_MvGroup, "compute", group_compute)
    monkeypatch.setattr(MvmKernel, "apply", kernel_apply)
    return calls


def _plan(compiled, sim, steps):
    """The plan the next run of ``steps`` steps on ``sim`` will use."""
    return sim.plan_for(compiled.program, {compiled.steps_binding: steps})


@pytest.mark.tier1
@pytest.mark.parametrize("kind,hidden,cfg", _HOIST_CASES, ids=_HOIST_IDS)
def test_hoisted_plan_matches_interpreter(kind, hidden, cfg, monkeypatch):
    """The per-step input projection computed once per run as a GEMM
    over time: outputs, snapshot, stats and every read/write counter
    equal the vectorized interpreter's, across two runs on one
    simulator (the second with carried recurrent state)."""
    compiled = _compiled_model(kind, hidden, cfg)
    sim_i = compiled.new_simulator()
    sim_c = compiled.new_simulator()
    calls = _count_sequence_gemms(monkeypatch)
    for seed in (0, 1):
        xs = _inputs(hidden, 3, seed=seed)
        plan = _plan(compiled, sim_c, len(xs))
        assert plan.hoisted_groups > 0
        del calls[:]
        out_i = compiled.run_sequence(xs, sim=sim_i)
        out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)
        assert calls == list(plan.hoisted)
        for a, b in zip(out_i, out_c):
            assert np.array_equal(a, b)
        _assert_state_equal(sim_i.snapshot(), sim_c.snapshot(), "snapshot")
        assert sim_i.stats.__dict__ == sim_c.stats.__dict__
        assert sim_i.mrf.reads == sim_c.mrf.reads
        assert sim_i.mrf.writes == sim_c.mrf.writes
        for mem in sim_i.vrfs:
            assert sim_i.vrfs[mem].reads == sim_c.vrfs[mem].reads, mem
            assert sim_i.vrfs[mem].writes == sim_c.vrfs[mem].writes, mem


@pytest.mark.tier1
@pytest.mark.parametrize("kind,hidden,cfg", _HOIST_CASES, ids=_HOIST_IDS)
def test_hoisted_traced_spans_and_counters(kind, hidden, cfg):
    """Observed mode on hoisted plans: the same spans and counters."""
    compiled = _compiled_model(kind, hidden, cfg)
    xs = _inputs(hidden, 3)
    tr_i, me_i = Tracer(), Metrics()
    sim_i = compiled.new_simulator(tracer=tr_i, metrics=me_i)
    out_i = compiled.run_sequence(xs, sim=sim_i)
    tr_c, me_c = Tracer(), Metrics()
    sim_c = compiled.new_simulator(tracer=tr_c, metrics=me_c)
    assert _plan(compiled, sim_c, len(xs)).hoisted_groups > 0
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)

    for a, b in zip(out_i, out_c):
        assert np.array_equal(a, b)

    def key(s):
        return (s.name, s.start, s.end, s.track,
                tuple(sorted(s.attrs.items())))

    assert [key(s) for s in tr_i.spans] == [key(s) for s in tr_c.spans]
    assert {k: c.value for k, c in me_i.counters.items()} == \
           {k: c.value for k, c in me_c.counters.items()}
    assert sim_i._trace_clock == sim_c._trace_clock


@pytest.mark.tier1
def test_hoisting_short_input_queue_falls_back(monkeypatch):
    """Fewer queued inputs than the plan pops: the run takes the
    un-hoisted path and raises the interpreter's NetworkQueueEmptyError
    with the same partial architectural state."""
    compiled = _compiled_model("lstm", 200, MB2)
    xs = _inputs(200, 3)
    bindings = {compiled.steps_binding: len(xs)}
    sims = {"interp": compiled.new_simulator(),
            "compiled": compiled.new_simulator()}
    plan = sims["compiled"].plan_for(compiled.program, bindings)
    assert plan.hoisted_groups > 0
    calls = _count_sequence_gemms(monkeypatch)
    errors = {}
    for name, sim in sims.items():
        for x in xs[:-1]:
            compiled._push_padded(sim, x)
        assert sim.netq.pending_inputs < plan.netq_pops
        with pytest.raises(NetworkQueueEmptyError) as exc_info:
            sim.run(compiled.program, bindings,
                    compiled=name == "compiled")
        errors[name] = str(exc_info.value)
    assert calls == []
    assert errors["interp"] == errors["compiled"]
    snap_i, snap_c = (sims[k].snapshot() for k in ("interp", "compiled"))
    # Scalar registers are the documented lag of a raising compiled run.
    del snap_i["scalar_regs"], snap_c["scalar_regs"]
    _assert_state_equal(snap_i, snap_c, "partial snapshot")
    assert sims["interp"].mrf.reads == sims["compiled"].mrf.reads


@pytest.mark.tier1
def test_hoisted_group_rebinds_after_load_matrix():
    """Rewriting a hoisted group's weights between runs: the next
    sequence GEMM uses the new weights."""
    compiled = _compiled_model("gru", 200, MB5)
    xs = _inputs(200, 3)
    sim_c = compiled.new_simulator()
    sim_v = compiled.new_simulator()
    before = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    compiled.run_sequence(xs, sim=sim_v)
    rng = np.random.default_rng(11)
    junk = rng.uniform(-1.0, 1.0, (200, 200)).astype(np.float32)
    base = compiled.allocator.slot("W_r").base
    sim_c.load_matrix(base, junk)
    sim_v.load_matrix(base, junk)
    # Same inputs again, on the plan the second run uses.
    assert _plan(compiled, sim_c, len(xs)).hoisted_groups > 0
    out_c = compiled.run_sequence(xs, sim=sim_c, compiled=True)
    out_v = compiled.run_sequence(xs, sim=sim_v)
    for a, b in zip(out_c, out_v):
        assert np.array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(out_c, before))
    _assert_state_equal(sim_v.snapshot(), sim_c.snapshot(), "snapshot")


@pytest.mark.tier1
def test_no_hoisting_in_exact_mode_or_with_fallback_steps():
    compiled = _compiled_model("lstm", 300, MB2)
    bindings = {compiled.steps_binding: 3}
    exact = compiled.new_simulator(exact=True)
    assert exact.plan_for(compiled.program, bindings).hoisted_groups == 0
    _assert_run_equivalent(compiled, _inputs(300, 3), exact=True)
    sim = compiled.new_simulator()
    assert sim.plan_for(compiled.program, bindings).hoisted_groups > 0
    # Even one interpreted step after every occurrence blocks hoisting.
    last = len(list(compiled.program.events(bindings))) - 1
    forced = sim.plan_for(compiled.program, bindings,
                          force_fallback=lambda pos, e: pos == last)
    assert forced.loopable_fallbacks == 1
    assert forced.hoisted_groups == 0
    # A group that occurs once has nothing to hoist.
    single = sim.plan_for(compiled.program, {compiled.steps_binding: 1})
    assert single.hoisted_groups == 0


def _projection_program(variant: str):
    """A 3-iteration loop around one ``mv_mul`` whose head is a network
    input (or not), per ``variant``."""
    b = ProgramBuilder(f"projection-{variant}")
    b.s_wr(ScalarReg.Rows, 1)
    b.s_wr(ScalarReg.Columns, 1)
    if variant == "m_wr-prologue":
        b.m_rd(MemId.Dram, 0).m_wr(MemId.MatrixRf, 0)
    with b.loop(3):
        if variant in ("netq", "m_wr-prologue", "m_wr-loop"):
            b.v_rd(MemId.NetQ).mv_mul(0).v_wr(MemId.NetQ)
        else:
            b.v_rd(MemId.NetQ)
            if variant == "relu-copy":
                b.v_relu()
            b.v_wr(MemId.InitialVrf, 0)
            if variant == "overwritten":
                b.v_rd(MemId.AddSubVrf, 0).v_wr(MemId.InitialVrf, 0)
            head = 1 if variant == "unwritten-head" else 0
            b.v_rd(MemId.InitialVrf, head).mv_mul(0).v_wr(MemId.NetQ)
        if variant == "m_wr-loop":
            b.m_rd(MemId.Dram, 0).m_wr(MemId.MatrixRf, 0)
    return b.build()


@pytest.mark.tier1
@pytest.mark.parametrize("variant,hoisted", [
    ("netq", 1), ("copy", 1), ("m_wr-prologue", 1), ("m_wr-loop", 0),
    ("relu-copy", 0), ("overwritten", 0), ("unwritten-head", 0)])
def test_hoisting_legality(variant, hoisted):
    """Only a head that is a network input at every occurrence, under
    weights no ``m_wr`` changes between occurrences, is hoisted: a NetQ
    read, or VRF rows a pure NetQ -> VRF copy last wrote. Either way
    the compiled run matches the interpreter."""
    program = _projection_program(variant)
    n = MB2.native_dim
    rng = np.random.default_rng(5)
    tile = rng.uniform(-1, 1, (n, n)).astype(np.float32)
    inputs = rng.uniform(-1, 1, (3, n)).astype(np.float32)
    sims = []
    for compiled_run in (False, True):
        sim = _compiled_model("lstm", 200, MB2).new_simulator()
        sim.dram.write_tiles(0, tile[np.newaxis] * 0.5)
        for x in inputs:
            sim.netq.push_input(x)
        if compiled_run:
            assert sim.plan_for(program).hoisted_groups == hoisted
        sim.run(program, compiled=compiled_run)
        sims.append(sim)
    _assert_state_equal(sims[0].snapshot(), sims[1].snapshot(), "snapshot")
    assert sims[0].stats.__dict__ == sims[1].stats.__dict__
    assert sims[0].mrf.reads == sims[1].mrf.reads


@pytest.mark.tier1
def test_hoisted_runs_alternate_with_batched_replay():
    """Batch-1 hoisted runs and BatchedReplay share one plan's groups
    (and the batch-size-keyed epilogue scratch) on one simulator; each
    stays bit-identical to its interpreted twin."""
    compiled = _compiled_model("lstm", 200, MB2)
    steps = 3
    sim = compiled.new_simulator()
    ref = compiled.new_simulator()
    history = []
    for round_ in range(2):
        xs = _inputs(200, steps, seed=10 + round_)
        assert _plan(compiled, sim, steps).hoisted_groups > 0
        out = compiled.run_sequence(xs, sim=sim, compiled=True)
        want = compiled.run_sequence(xs, sim=ref)
        for a, b in zip(out, want):
            assert np.array_equal(a, b)
        history.append(xs)
        # Batch == steps on the first round: the scratch key collides.
        batch = steps if round_ == 0 else 2
        xb = [_inputs(200, steps, seed=20 + round_ * 5 + b)
              for b in range(batch)]
        outs_b = compiled.run_sequence_batched(xb, sim=sim)
        for b in range(batch):
            twin = compiled.new_simulator()
            for past in history:
                compiled.run_sequence(past, sim=twin)
            seq = compiled.run_sequence(xb[b], sim=twin)
            for a, c in zip(outs_b[b], seq):
                assert np.array_equal(a, c), f"round {round_} request {b}"
    _assert_state_equal(ref.snapshot(), sim.snapshot(), "snapshot")

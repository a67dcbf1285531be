"""Bit-exact equivalence of the vectorized execution layer.

The vectorized ``mv_mul`` paths (row-packed float64 GEMV, mantissa-GEMV,
and the stacked float64 fallback), the MRF window cache, and the
``copy=False`` register-file reads must be indistinguishable from the
``naive=True`` reference — same outputs, same statistics, same trace,
same metric counters. These tests pin that contract (the perf harness
depends on it: a speedup number from a divergent fast path is invalid).
"""

import numpy as np
import pytest

from repro.compiler.lowering import compile_gru, compile_lstm
from repro.config import BW_CNN_A10, BW_S5, NpuConfig
from repro.functional import FunctionalSimulator, kernels
from repro.isa import MemId, ProgramBuilder
from repro.memory import MatrixRegisterFile, VectorRegisterFile
from repro.models.gru import GruReference
from repro.models.lstm import LstmReference
from repro.obs import Metrics, Tracer
from repro.timing.scheduler import ReadyTracker

# The two published BFP formats (Table IV/VI) on a lab-sized instance:
# mb=2 activates the row-packed GEMV (k >= 3 slots fit in a float64
# lane); mb=5 at n=128 overflows the packing budget and must take the
# per-column-block mantissa-GEMV path instead.
RNN_CFG = NpuConfig(name="eq_rnn", tile_engines=2, lanes=4, native_dim=128,
                    mrf_size=64, mantissa_bits=2)
CNN_CFG = NpuConfig(name="eq_cnn", tile_engines=2, lanes=4, native_dim=128,
                    mrf_size=64, mantissa_bits=5)


def _span_key(span):
    return (span.name, span.start, span.end, span.track, tuple(
        sorted(span.attrs.items())))


def _run_pair(config, rows, cols, *, exact, seed=0, calls=3):
    """Run the same mv_mul program on naive and vectorized simulators."""
    n = config.native_dim
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1, 1, (rows * n, cols * n)).astype(np.float32)
    xs = [rng.uniform(-2, 2, cols * n).astype(np.float32)
          for _ in range(calls)]
    outs = {}
    sims = {}
    for naive in (False, True):
        tracer = Tracer(unit="instructions")
        metrics = Metrics()
        sim = FunctionalSimulator(config, exact=exact, tracer=tracer,
                                  metrics=metrics, naive=naive)
        sim.load_matrix(0, W)
        results = []
        for x in xs:
            sim.load_vector(MemId.InitialVrf, 0, x)
            b = ProgramBuilder("mvm")
            b.set_rows(rows)
            b.set_columns(cols)
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(0)
            b.v_wr(MemId.InitialVrf, cols)
            sim.run(b.build())
            results.append(sim.read_vector(MemId.InitialVrf, cols, rows * n))
        outs[naive] = (results, sim.stats, tracer, metrics)
        sims[naive] = sim
    return outs, sims


@pytest.mark.parametrize("config", [RNN_CFG, CNN_CFG],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (3, 1), (2, 2),
                                       (4, 3), (5, 5)])
@pytest.mark.parametrize("exact", [False, True],
                         ids=["quantized", "exact"])
def test_mv_mul_sweep_bit_identical(config, rows, cols, exact):
    """Every (rows, cols) window shape matches the naive path exactly —
    outputs, statistics, trace spans, and metric counters."""
    outs, sims = _run_pair(config, rows, cols, exact=exact)
    fast_results, fast_stats, fast_tracer, fast_metrics = outs[False]
    ref_results, ref_stats, ref_tracer, ref_metrics = outs[True]
    for got, want in zip(fast_results, ref_results):
        assert np.array_equal(got, want)
    assert fast_stats == ref_stats
    assert sims[False].mrf.reads == sims[True].mrf.reads
    assert ([_span_key(s) for s in fast_tracer.spans]
            == [_span_key(s) for s in ref_tracer.spans])
    assert ({k: c.value for k, c in fast_metrics.counters.items()}
            == {k: c.value for k, c in ref_metrics.counters.items()})


def test_packed_gemv_active_only_for_narrow_formats():
    """mb=2 packs k>=3 mantissa rows per float64 lane; mb=5 at n=128
    exceeds the slot budget and falls back to mantissa-GEMV; exact mode
    uses neither."""
    rnn = FunctionalSimulator(RNN_CFG)
    cnn = FunctionalSimulator(CNN_CFG)
    ex = FunctionalSimulator(RNN_CFG, exact=True)
    assert rnn.kernel.path == kernels.PACKED and rnn.kernel.slots >= 3
    assert cnn.kernel.path == kernels.MANTISSA and cnn.kernel.slots == 0
    assert ex.kernel.path == kernels.F64 and ex.kernel.slots == 0


def test_mrf_rewrite_invalidates_window_cache():
    """Writing a tile between mv_muls must change the vectorized result
    exactly as it changes the naive one (generation invalidation)."""
    n = RNN_CFG.native_dim
    rng = np.random.default_rng(5)
    W1 = rng.uniform(-1, 1, (2 * n, 2 * n)).astype(np.float32)
    W2 = rng.uniform(-1, 1, (2 * n, 2 * n)).astype(np.float32)
    x = rng.uniform(-1, 1, 2 * n).astype(np.float32)

    def run(naive):
        sim = FunctionalSimulator(RNN_CFG, naive=naive)
        outs = []
        for W in (W1, W2):
            sim.load_matrix(0, W)
            sim.load_vector(MemId.InitialVrf, 0, x)
            b = ProgramBuilder("p")
            b.set_rows(2)
            b.set_columns(2)
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(0)
            b.v_wr(MemId.InitialVrf, 2)
            sim.run(b.build())
            outs.append(sim.read_vector(MemId.InitialVrf, 2, 2 * n))
        return outs

    fast, ref = run(False), run(True)
    assert np.array_equal(fast[0], ref[0])
    assert np.array_equal(fast[1], ref[1])
    assert not np.array_equal(ref[0], ref[1])


@pytest.mark.parametrize("kind,hidden,config", [
    ("lstm", 200, BW_S5), ("gru", 200, BW_S5),
    ("lstm", 256, BW_CNN_A10),
], ids=["lstm_s5", "gru_s5", "lstm_cnn_a10"])
@pytest.mark.parametrize("exact", [False, True],
                         ids=["quantized", "exact"])
def test_compiled_rnn_bit_identical(kind, hidden, config, exact):
    """End-to-end compiled LSTM/GRU sequences are bit-identical between
    the naive and vectorized executors, including observability output."""
    if kind == "lstm":
        model = compile_lstm(LstmReference(hidden_dim=hidden, seed=3), config)
    else:
        model = compile_gru(GruReference(hidden_dim=hidden, seed=3), config)
    rng = np.random.default_rng(9)
    xs = [rng.standard_normal(model.input_length).astype(np.float32)
          for _ in range(3)]

    runs = {}
    for naive in (False, True):
        tracer = Tracer(unit="instructions")
        metrics = Metrics()
        sim = model.new_simulator(exact=exact, tracer=tracer,
                                  metrics=metrics, naive=naive)
        outs = model.run_sequence(xs, sim=sim)
        runs[naive] = (outs, sim.stats, sim.mrf.reads, tracer, metrics)

    fast, ref = runs[False], runs[True]
    for got, want in zip(fast[0], ref[0]):
        assert np.array_equal(got, want)
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]
    assert ([_span_key(s) for s in fast[3].spans]
            == [_span_key(s) for s in ref[3].spans])
    assert ({k: c.value for k, c in fast[4].counters.items()}
            == {k: c.value for k, c in ref[4].counters.items()})


# -- MRF window cache ------------------------------------------------------

class TestReadWindow:
    def test_window_matches_tile_layout(self):
        """Window tile (r, c) is MRF slot base + r*cols + c."""
        mrf = MatrixRegisterFile("mrf", capacity=12, native_dim=4)
        rng = np.random.default_rng(0)
        tiles = rng.standard_normal((6, 4, 4)).astype(np.float32)
        mrf.write_tiles(2, tiles)
        window = mrf.read_window(2, 2, 3)
        assert window.shape == (8, 12)
        for r in range(2):
            for c in range(3):
                assert np.array_equal(
                    window[r * 4:(r + 1) * 4, c * 4:(c + 1) * 4],
                    tiles[r * 3 + c])

    def test_cache_hit_counts_reads_and_write_invalidates(self):
        mrf = MatrixRegisterFile("mrf", capacity=8, native_dim=2)
        mrf.write_tiles(0, np.ones((4, 2, 2), dtype=np.float32))
        first = mrf.read_window(0, 2, 2)
        reads_after_first = mrf.reads
        again = mrf.read_window(0, 2, 2)
        assert again is first  # cached object
        assert mrf.reads == reads_after_first + 4  # stats still accrue
        mrf.write_tile(3, np.full((2, 2), 7.0, dtype=np.float32))
        refreshed = mrf.read_window(0, 2, 2)
        assert refreshed is not first
        assert refreshed[2, 2] == 7.0

    def test_clear_invalidates(self):
        mrf = MatrixRegisterFile("mrf", capacity=4, native_dim=2)
        mrf.write_tile(0, np.ones((2, 2), dtype=np.float32))
        assert mrf.read_window(0, 1, 1)[0, 0] == 1.0
        mrf.clear()
        assert np.all(mrf.read_window(0, 1, 1) == 0.0)

    def test_out_of_range_window_rejected(self):
        from repro.errors import MemoryError_
        mrf = MatrixRegisterFile("mrf", capacity=4, native_dim=2)
        with pytest.raises(MemoryError_):
            mrf.read_window(2, 1, 3)


class TestCopyFalseReads:
    def test_vrf_view_aliases_storage(self):
        vrf = VectorRegisterFile("vrf", depth=4, native_dim=3)
        vrf.write(1, np.arange(6, dtype=np.float32).reshape(2, 3))
        view = vrf.read(1, 2, copy=False)
        copied = vrf.read(1, 2)
        assert np.shares_memory(view, vrf._data)
        assert not np.shares_memory(copied, vrf._data)
        assert np.array_equal(view, copied)

    def test_mrf_tiles_view_aliases_storage(self):
        mrf = MatrixRegisterFile("mrf", capacity=4, native_dim=2)
        mrf.write_tile(1, np.ones((2, 2), dtype=np.float32))
        view = mrf.read_tiles(0, 2, copy=False)
        assert np.shares_memory(view, mrf._tiles)
        assert not np.shares_memory(mrf.read_tiles(0, 2), mrf._tiles)


# -- _tiles_of layout regression ------------------------------------------

def test_tiles_of_row_major_tile_layout():
    """Tile (r, c) of a padded matrix lands at slot r*cols + c, with
    zero padding beyond the matrix edge (the vectorized reshape must
    reproduce the historical per-tile slicing exactly)."""
    cfg = NpuConfig(name="tiles", tile_engines=1, lanes=2, native_dim=4,
                    mrf_size=32, mantissa_bits=0)
    sim = FunctionalSimulator(cfg, exact=True)
    rng = np.random.default_rng(2)
    M = rng.standard_normal((10, 7)).astype(np.float32)  # pads to 12 x 8
    tiles = sim._tiles_of(M)
    assert tiles.shape == (6, 4, 4)
    padded = np.zeros((12, 8), dtype=np.float32)
    padded[:10, :7] = M
    for r in range(3):
        for c in range(2):
            assert np.array_equal(
                tiles[r * 2 + c],
                padded[r * 4:(r + 1) * 4, c * 4:(c + 1) * 4])


# -- ReadyTracker ----------------------------------------------------------

class TestReadyTracker:
    def test_unwritten_ranges_are_time_zero(self):
        t = ReadyTracker()
        assert t.range_max(MemId.InitialVrf, 0, 100) == 0.0
        t.mark(MemId.InitialVrf, 5, 2, 10.0)
        assert t.range_max(MemId.AddSubVrf, 0, 10) == 0.0
        assert t.range_max(MemId.InitialVrf, 0, 5) == 0.0
        assert t.range_max(MemId.InitialVrf, 7, 3) == 0.0

    def test_range_max_over_marks(self):
        t = ReadyTracker()
        t.mark(MemId.MatrixRf, 0, 4, 3.0)
        t.mark(MemId.MatrixRf, 2, 2, 9.0)
        assert t.range_max(MemId.MatrixRf, 0, 1) == 3.0
        assert t.range_max(MemId.MatrixRf, 0, 4) == 9.0
        assert t.range_max(MemId.MatrixRf, 3, 1) == 9.0

    def test_growth_preserves_times(self):
        t = ReadyTracker()
        t.mark(MemId.InitialVrf, 0, 1, 2.5)
        t.mark(MemId.InitialVrf, 500, 8, 7.5)  # forces a regrow
        assert t.range_max(MemId.InitialVrf, 0, 1) == 2.5
        assert t.range_max(MemId.InitialVrf, 500, 8) == 7.5
        assert t.range_max(MemId.InitialVrf, 0, 508) == 7.5

    def test_clipped_range_beyond_array(self):
        t = ReadyTracker()
        t.mark(MemId.InitialVrf, 0, 2, 4.0)
        # Range extends past the backing array; clip, don't fault.
        assert t.range_max(MemId.InitialVrf, 1, 10_000) == 4.0
        assert t.range_max(MemId.InitialVrf, 10_000, 4) == 0.0

"""Property tests for batched BFP quantization (hypothesis).

The vectorized executor relies on two numerics contracts: quantizing a
batch of vectors in one call is element-wise identical to quantizing
each vector alone (blocks are independent), and :func:`decompose`
produces exactly the mantissas/exponents of :func:`quantize_with_info`
without materializing values. A final property drives the whole stack:
the naive ``mv_mul`` and every engine built on the shared MVM kernel
(vectorized interpreter, compiled replay, batched replay) agree bit for
bit on random windows on each kernel path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NpuConfig
from repro.functional import BatchedReplay, FunctionalSimulator
from repro.isa import MemId, ProgramBuilder
from repro.numerics.bfp import (
    MSFP_CNN,
    MSFP_RNN,
    MX_INT4,
    MX_INT8,
    BfpFormat,
    decompose,
    quantize,
    quantize_with_info,
)

formats = st.sampled_from([
    MSFP_RNN, MSFP_CNN, MX_INT8, MX_INT4,
    BfpFormat(mantissa_bits=3, exponent_bits=5, block_size=16),
    BfpFormat(mantissa_bits=2, exponent_bits=5, block_size=16,
              scale_granularity="tile"),
])

finite32 = st.floats(-1e4, 1e4, allow_nan=False, width=32)


def _batch(draw_rows, fmt):
    return np.asarray(draw_rows, dtype=np.float32).reshape(
        len(draw_rows) // fmt.block_size, fmt.block_size)


@given(fmt=formats, data=st.data())
@settings(max_examples=60, deadline=None)
def test_batched_quantize_equals_scalar(fmt, data):
    rows = data.draw(st.integers(1, 4))
    flat = data.draw(st.lists(finite32,
                              min_size=rows * fmt.block_size,
                              max_size=rows * fmt.block_size))
    batch = _batch(flat, fmt)
    batched = quantize(batch, fmt)
    for r in range(batch.shape[0]):
        alone = quantize(batch[r], fmt)
        assert np.array_equal(batched[r], alone)


@given(fmt=formats, data=st.data())
@settings(max_examples=60, deadline=None)
def test_decompose_matches_quantize_with_info(fmt, data):
    rows = data.draw(st.integers(1, 4))
    flat = data.draw(st.lists(finite32,
                              min_size=rows * fmt.block_size,
                              max_size=rows * fmt.block_size))
    batch = _batch(flat, fmt)
    values, mantissas, exponents = quantize_with_info(batch, fmt)
    d_mant, d_exp = decompose(batch, fmt)
    assert d_mant.dtype == np.float32  # working dtype preserved
    assert np.array_equal(d_mant.astype(np.int64), mantissas)
    assert np.array_equal(d_exp, exponents)
    # Reconstruction from the decomposition reproduces the values.
    scale = np.exp2((d_exp - fmt.mantissa_bits + 1).astype(np.float32))
    rebuilt = (d_mant.reshape(rows, -1, fmt.block_size)
               * scale[..., np.newaxis]).reshape(batch.shape)
    assert np.array_equal(rebuilt.astype(np.float32), values)


@given(fmt=formats, data=st.data())
@settings(max_examples=40, deadline=None)
def test_quantize_float32_and_float64_inputs_agree(fmt, data):
    flat = data.draw(st.lists(finite32, min_size=fmt.block_size,
                              max_size=fmt.block_size))
    x32 = np.asarray(flat, dtype=np.float32)
    assert np.array_equal(quantize(x32, fmt),
                          quantize(x32.astype(np.float64), fmt))


def test_all_zero_blocks_quantize_to_zero_at_min_exponent():
    fmt = BfpFormat(mantissa_bits=3, exponent_bits=5, block_size=8)
    batch = np.zeros((3, 8), dtype=np.float32)
    batch[1] = 1.0  # one live block between two dead ones
    values, mantissas, exponents = quantize_with_info(batch, fmt)
    d_mant, d_exp = decompose(batch, fmt)
    assert np.array_equal(d_exp, exponents)
    assert exponents[0] == exponents[2] == fmt.min_exponent
    assert np.all(values[0] == 0) and np.all(mantissas[0] == 0)
    assert np.all(d_mant[0] == 0)
    assert np.array_equal(values[1], np.ones(8, dtype=np.float32))


def test_exponent_clamp_edges_batched_equals_scalar():
    """Blocks straddling both exponent clamps quantize identically
    batched and alone (the clamp is per block, not per batch)."""
    fmt = BfpFormat(mantissa_bits=2, exponent_bits=4, block_size=4)
    tiny = np.full(4, 2.0 ** (fmt.min_exponent - 6), dtype=np.float32)
    huge = np.full(4, 2.0 ** (fmt.max_exponent + 6), dtype=np.float32)
    mid = np.asarray([0.5, -1.5, 2.0, 0.0], dtype=np.float32)
    batch = np.stack([tiny, mid, huge])
    batched = quantize(batch, fmt)
    for r, row in enumerate(batch):
        assert np.array_equal(batched[r], quantize(row, fmt))
    _, exps = decompose(batch, fmt)
    assert exps[0] == fmt.min_exponent
    assert exps[2] == fmt.max_exponent


# -- naive vs. every engine's mv_mul ------------------------------------

def _cfg(name, **fmt):
    return NpuConfig(name=name, tile_engines=2, lanes=4, native_dim=128,
                     mrf_size=64, **fmt)


#: One config per kernel path: packed GEMV (mb=2), mantissa GEMV
#: (mb=5), float64 (exact, mb=0), and a sub-block MX format (nb=4).
_CFGS = {
    "mb2": _cfg("prop_rnn", mantissa_bits=2),
    "mb5": _cfg("prop_cnn", mantissa_bits=5),
    "exact": _cfg("prop_exact", mantissa_bits=0),
    "mx4": _cfg("prop_mx4", mantissa_bits=3, exponent_bits=8,
                bfp_block_size=32, scale_encoding="e8m0"),
}

#: Requests stepped together through the batched replay.
_BATCH = 3


def _mvm_program(rows, cols):
    b = ProgramBuilder("p")
    b.set_rows(rows)
    b.set_columns(cols)
    b.v_rd(MemId.NetQ)
    b.mv_mul(0)
    b.v_wr(MemId.NetQ)
    return b.build()


def _mvm(cfg, W, x, program, naive=False, compiled=False):
    sim = FunctionalSimulator(cfg, naive=naive)
    sim.load_matrix(0, W)
    sim.push_input(x)
    sim.run(program, compiled=compiled)
    return sim.pop_outputs_flat()


def _mvm_batched(cfg, W, xs, program, cols):
    sim = FunctionalSimulator(cfg)
    sim.load_matrix(0, W)
    replay = BatchedReplay(sim, program, len(xs))
    n = cfg.native_dim
    for c in range(cols):
        replay.push_input(xs[:, c * n:(c + 1) * n])
    replay.run()
    return [np.concatenate(outs) for outs in replay.pop_outputs()]


@given(config=st.sampled_from(sorted(_CFGS)),
       rows=st.integers(1, 4), cols=st.integers(1, 4),
       seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_mv_mul_naive_vs_vectorized_bit_exact(config, rows, cols, seed):
    """Random windows on every kernel path: the vectorized interpreter,
    the compiled replay and each request of a batched replay return the
    naive reference bit for bit."""
    cfg = _CFGS[config]
    n = cfg.native_dim
    rng = np.random.default_rng(seed)
    W = rng.uniform(-4, 4, (rows * n, cols * n)).astype(np.float32)
    # Per-32-element power-of-two spreads give each request and block
    # its own shared exponent.
    spread = np.exp2(rng.integers(-6, 7, (_BATCH, cols * n // 32)))
    xs = (rng.uniform(-4, 4, (_BATCH, cols * n))
          * spread.repeat(32, axis=1)).astype(np.float32)
    program = _mvm_program(rows, cols)
    refs = [_mvm(cfg, W, x, program, naive=True) for x in xs]
    assert np.array_equal(_mvm(cfg, W, xs[0], program), refs[0])
    assert np.array_equal(_mvm(cfg, W, xs[0], program, compiled=True),
                          refs[0])
    for got, ref in zip(_mvm_batched(cfg, W, xs, program, cols), refs):
        assert np.array_equal(got, ref)

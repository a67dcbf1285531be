"""The exact mega-SIMD MVM kernel shared by every execution engine.

The BW NPU's MVM is one unit: BFP mantissas meet in an exact integer
accumulation tree, and each scale block's dot product is rescaled by a
power of two before the blocks are summed (Section V-A). This module is
the one host implementation of that unit. The vectorized interpreter
(:class:`~repro.functional.FunctionalSimulator`), compiled replay,
sequence-hoisted input projections and :class:`~repro.functional.replay
.BatchedReplay` all call :meth:`MvmKernel.apply`; the naive per-tile
loop and :mod:`repro.verify.reference` stay separate as the references
it is checked against.

Operands are split into *segments*: a native row holds
``nb = N / block_size`` scale blocks, so a ``cols``-wide window has
``S = cols * nb`` segments of width ``block_size`` in (c, k) order, the
reference accumulation order. The kernel picks one of three paths from
the format, once per simulator:

* **packed** — k mantissa rows share one float64 lane in disjoint bit
  slots, so one GEMV yields k exact integer block dots (the 2-3 bit
  production formats; the hardware's narrow-precision bandwidth
  multiplier, Section VI);
* **mantissa** — a float32 GEMV over integer mantissas, exact while
  every partial sum fits float32's 24-bit integer range;
* **f64** — per-request float64 GEMVs over the dequantized (or, in
  exact mode, raw) values, for formats too wide for either.

On the packed and mantissa paths every dot product is an exact integer,
so stacking weight windows along the output rows or inputs along a
batch axis changes no bit (:attr:`MvmKernel.integer`); the f64 path
keeps one window and one GEMV per request.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..numerics.bfp import BfpFormat, decompose, quantize, scales_of, \
    to_float16

#: Kernel paths (:attr:`MvmKernel.path`).
PACKED, MANTISSA, F64 = "packed", "mantissa", "f64"


class MvmWeights:
    """Decomposed weight operands of one window or a stack of windows.

    * packed: ``mant`` (S, G, block) float64 packed lanes, ``scales``
      (S, k, G) — slot t of lane g is output row ``g*k + t``; padding
      rows carry zero mantissas and zero scales;
    * mantissa: ``mant`` (S, R, block) float32, ``scales`` (S, R);
    * f64: ``mant`` (S, R, block) float64 values, ``scales`` None.

    ``parts`` holds ``(first output row, native rows)`` per stacked
    window and ``rows_out`` the (padded) output row count.
    """

    __slots__ = ("mant", "scales", "parts", "rows_out", "_scratch")

    def __init__(self, mant: np.ndarray, scales: Optional[np.ndarray],
                 parts: Tuple[Tuple[int, int], ...], rows_out: int):
        self.mant = mant
        self.scales = scales
        self.parts = parts
        self.rows_out = rows_out
        self._scratch = None

    def scratch(self, batch: int) -> tuple:
        """Persistent work buffers for a batch-``batch`` packed apply.

        Unpacking k slot dots per lane churns several (S, B, k, G)
        temporaries per call; allocating them once and writing through
        ``out=`` keeps the epilogue off the allocator (large numpy
        temporaries are mmap-backed, so fresh ones fault in pages every
        call). One batch size is kept; operands are rebuilt, scratch
        included, when the MRF generation changes.
        """
        if self._scratch is None or self._scratch[0] != batch:
            segs, groups = self.mant.shape[:2]
            k = self.scales.shape[1]
            self._scratch = (batch,
                             np.empty((segs, batch, groups)),
                             np.empty((segs, batch, k, groups)),
                             np.empty((segs, batch, k - 1, groups)),
                             np.empty((batch, k, groups)))
        return self._scratch[1:]


class MvmKernel:
    """The exact MVM for one native dimension and BFP format.

    ``bfp=None`` is exact mode (no quantization, float32 values). The
    path and packing geometry are fixed at construction.
    """

    __slots__ = ("bfp", "n", "seg_width", "nb", "path", "slots", "width",
                 "_inv", "_two_w")

    def __init__(self, native_dim: int, bfp: Optional[BfpFormat]):
        self.bfp = bfp
        self.n = native_dim
        self.seg_width = native_dim if bfp is None else bfp.block_size
        self.nb = native_dim // self.seg_width
        self.slots = self.width = 0
        if bfp is None:
            self.path = F64
            return
        # Slot width w holds any block dot (|dot| <= block_size *
        # (2^mb - 1)^2 <= 2^(w-1) - 1) and k slots keep every partial
        # sum under float64's 53-bit exact-integer range.
        block_dot_max = self.seg_width * bfp.max_mantissa ** 2
        width = block_dot_max.bit_length() + 1
        if 53 // width >= 3:
            self.path = PACKED
            self.slots, self.width = 53 // width, width
            self._inv = np.exp2(-width * (self.slots - 1 - np.arange(
                self.slots, dtype=np.float64)))[:, np.newaxis]
            self._two_w = float(np.exp2(width))
        elif block_dot_max <= 1 << 24:
            self.path = MANTISSA
        else:
            self.path = F64

    @property
    def integer(self) -> bool:
        """Every dot product is an exact integer: stacked windows and
        batched inputs give the per-window, per-request bits."""
        return self.path != F64

    # -- operands ----------------------------------------------------------

    def weights(self, window: np.ndarray, rows: int,
                cols: int) -> MvmWeights:
        """Operands of an assembled (rows*N, cols*N) MRF window.

        The MRF holds BFP-quantized weights, so the decomposition is
        exact and idempotent.
        """
        n, b, nb = self.n, self.seg_width, self.nb
        total, segs = rows * n, cols * nb
        # Column-block layout: tile column c of every window row,
        # (cols, rows*N, N); splitting each native row into nb scale
        # blocks gives segment s = c*nb + k as (rows*N, block).
        blocks = window.reshape(total, cols, n).transpose(1, 0, 2)
        if self.path == F64:
            blocks = (blocks.reshape(cols, total, nb, b)
                      .transpose(0, 2, 1, 3).reshape(segs, total, b))
            return MvmWeights(np.ascontiguousarray(blocks, np.float64),
                              None, ((0, rows),), total)
        mant, exps = decompose(np.ascontiguousarray(blocks).reshape(-1, n),
                               self.bfp)
        scales = (scales_of(exps, self.bfp).reshape(cols, total, nb)
                  .transpose(0, 2, 1).reshape(segs, total))
        mant = (mant.reshape(cols, total, nb, b).transpose(0, 2, 1, 3)
                .reshape(segs, total, b))
        if self.path == MANTISSA:
            return MvmWeights(np.ascontiguousarray(mant),
                              np.ascontiguousarray(scales), ((0, rows),),
                              total)
        # Pack row g*k + t into bit slot w*(k-1-t) of lane g. Slot values
        # stay integers below 2^(w-1) through the GEMV, so a packed dot
        # is the exact sum of k disjoint slot dots (see `_unpack`).
        # Padding rows get zero mantissas and zero scales.
        k = self.slots
        groups = -(-total // k)
        packed = np.zeros((segs, groups, b))
        slot_scales = np.zeros((segs, k, groups))
        for t in range(k):
            count = len(range(t, total, k))
            packed[:, :count] += mant[:, t::k] * np.float64(
                2.0 ** (self.width * (k - 1 - t)))
            slot_scales[:, t, :count] = scales[:, t::k]
        return MvmWeights(packed, slot_scales, ((0, rows),), groups * k)

    @staticmethod
    def stack(parts: Sequence[MvmWeights]) -> MvmWeights:
        """Concatenate windows with the same column count along the
        output rows (one GEMV per segment then serves them all)."""
        if len(parts) == 1:
            return parts[0]
        layout, offset = [], 0
        for part in parts:
            layout.extend((offset + start, rows) for start, rows in part.parts)
            offset += part.rows_out
        scales = (None if parts[0].scales is None else
                  np.concatenate([p.scales for p in parts], axis=-1))
        return MvmWeights(np.concatenate([p.mant for p in parts], axis=1),
                          scales, tuple(layout), offset)

    def inputs(self, value: np.ndarray) -> tuple:
        """Operands of a (B, cols, N) input stack: ``(mantissas (B, S,
        block), scales (S, B, 1, 1))``, or ``(values (B, S, block),
        None)`` on the f64 path."""
        batch = value.shape[0]
        segs = value.shape[1] * self.nb
        if self.bfp is None:
            return value.astype(np.float64).reshape(batch, segs, -1), None
        if self.path == F64:
            return (quantize(value, self.bfp).astype(np.float64)
                    .reshape(batch, segs, -1), None)
        mant, exps = decompose(value, self.bfp)
        if self.path == PACKED:
            mant = mant.astype(np.float64)
        scales = scales_of(exps, self.bfp).reshape(batch, segs).T
        return (mant.reshape(batch, segs, -1),
                scales[:, :, np.newaxis, np.newaxis])

    # -- the MVM -------------------------------------------------------------

    def apply(self, w: MvmWeights, x: tuple) -> Tuple[np.ndarray, ...]:
        """The pipeline-word MVM outputs of every stacked window,
        (B, rows, N) each, for ``x = inputs(value)``.

        Segment terms are accumulated in the reference (c, k) order, so
        every float64 partial sum equals the naive loop's. At B=1 each
        segment is one GEMV; a larger batch runs the requests along the
        GEMM's N dimension, which is what amortizes the weight traffic
        (a (B, ...) batched matmul would degrade to B separate GEMVs).
        """
        x_mant, x_scales = x
        batch = x_mant.shape[0]
        if self.path == PACKED:
            acc = self._apply_packed(w, x_mant, x_scales)
        elif self.path == MANTISSA:
            acc = self._apply_mantissa(w, x_mant, x_scales)
        else:
            acc = np.stack([self._apply_f64(w.mant, x_mant[b])
                            for b in range(batch)])
        out = self.round(acc).reshape(batch, -1)
        n = self.n
        return tuple(out[:, start:start + rows * n].reshape(batch, rows, n)
                     for start, rows in w.parts)

    def round(self, acc: np.ndarray) -> np.ndarray:
        """Deliver exact accumulations as pipeline words: float32, then
        float16 unless the simulator is exact."""
        out = acc.astype(np.float32)
        return out if self.bfp is None else to_float16(out)

    def _apply_packed(self, w: MvmWeights, x_mant: np.ndarray,
                      x_scales: np.ndarray) -> np.ndarray:
        segs, groups = w.mant.shape[:2]
        batch = x_mant.shape[0]
        if batch == 1:
            # (S, G, 1) GEMV output is (S, 1, G) in memory.
            packed = np.matmul(w.mant, x_mant[0, :, :, np.newaxis]) \
                .reshape(segs, 1, groups)
            prefixes = spare = acc = None
        else:
            packed, prefixes, spare, acc = w.scratch(batch)
            for s in range(segs):
                np.matmul(x_mant[:, s], w.mant[s].T, out=packed[s])
        dots = self._unpack(packed, prefixes, spare)
        # terms = dots * (w_scale * x_scale). Both scale factors are
        # powers of two, so the two in-place multiplies equal the
        # reference's single product bit for bit.
        np.multiply(dots, w.scales[:, np.newaxis], out=dots)
        np.multiply(dots, x_scales, out=dots)
        if segs == 1:
            acc = dots[0]
        else:
            acc = np.add(dots[0], dots[1], out=acc)
            for s in range(2, segs):
                np.add(acc, dots[s], out=acc)
        # (B, k, G) -> (B, G, k): row g*k + t.
        return acc.transpose(0, 2, 1)

    def _unpack(self, packed: np.ndarray, prefixes: Optional[np.ndarray],
                spare: Optional[np.ndarray]) -> np.ndarray:
        """Recover the k exact slot dots of (S, B, G) packed lane dots
        as (S, B, k, G), in ``prefixes`` (``spare`` holds temporaries).

        Rounding ``p / 2^(w*(k-1-t))`` isolates the slot-t *prefix*
        exactly — the slots below it sum to strictly less than half a
        unit (each |dot| <= 2^(w-1) - 1) — and adjacent prefixes
        difference to the slot values. Every product and difference
        stays in float64's exact integer range by the packing bound.
        """
        prefixes = np.multiply(packed[:, :, np.newaxis], self._inv,
                               out=prefixes)
        np.rint(prefixes, out=prefixes)
        lower = np.multiply(prefixes[:, :, :-1], self._two_w,
                            out=None if spare is None else spare)
        np.subtract(prefixes[:, :, 1:], lower, out=prefixes[:, :, 1:])
        return prefixes

    @staticmethod
    def _apply_mantissa(w: MvmWeights, x_mant: np.ndarray,
                        x_scales: np.ndarray) -> np.ndarray:
        def dots(s):  # (B, R) float32 integer dots of segment s
            if len(x_mant) == 1:
                return (w.mant[s] @ x_mant[0, s])[np.newaxis]
            return x_mant[:, s] @ w.mant[s].T

        acc = dots(0).astype(np.float64) * (w.scales[0] * x_scales[0, :, 0])
        for s in range(1, len(w.mant)):
            acc += dots(s).astype(np.float64) * (w.scales[s]
                                                 * x_scales[s, :, 0])
        return acc

    @staticmethod
    def _apply_f64(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
        """One request: per-segment float64 GEMVs, summed in order."""
        acc = blocks[0] @ x[0]
        for s in range(1, len(blocks)):
            acc += blocks[s] @ x[s]
        return acc

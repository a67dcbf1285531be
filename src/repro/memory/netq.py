"""Network I/O queues.

BW FPGAs sit directly on the datacenter network (Section II-A); DNN
requests arrive as vector streams on an input queue and results leave on
an output queue. Matrices can also arrive over the network for MRF
initialization (Table II: ``m_rd`` from NetQ).
"""

from __future__ import annotations

import collections
from typing import Deque, List

import numpy as np

from ..errors import MemoryError_, NetworkQueueEmptyError


class NetworkQueues:
    """Input/output vector queues plus an input matrix-tile queue."""

    def __init__(self, native_dim: int):
        self.native_dim = native_dim
        self._in_vectors: Deque[np.ndarray] = collections.deque()
        self._in_tiles: Deque[np.ndarray] = collections.deque()
        self._out_vectors: List[np.ndarray] = []
        self.vectors_received = 0
        self.vectors_sent = 0

    # -- host side -------------------------------------------------------

    def push_input(self, vector: np.ndarray) -> None:
        """Host/network delivers one native vector to the NPU."""
        vector = np.asarray(vector, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.native_dim:
            raise MemoryError_(
                f"NetQ vector length {vector.shape[0]} != native dimension "
                f"{self.native_dim}")
        self._in_vectors.append(vector.copy())

    def push_input_tiles(self, tiles: np.ndarray) -> None:
        """Host/network delivers matrix tiles for MRF initialization."""
        tiles = np.asarray(tiles, dtype=np.float32)
        if tiles.ndim == 2:
            tiles = tiles[np.newaxis]
        if tiles.shape[1:] != (self.native_dim, self.native_dim):
            raise MemoryError_(f"NetQ tile shape {tiles.shape[1:]} invalid")
        for tile in tiles:
            self._in_tiles.append(tile.copy())

    def pop_outputs(self) -> List[np.ndarray]:
        """Drain all vectors the NPU has sent to the network."""
        out, self._out_vectors = self._out_vectors, []
        return out

    @property
    def pending_inputs(self) -> int:
        return len(self._in_vectors)

    def peek_inputs(self, count: int) -> np.ndarray:
        """Copy of the next ``count`` input vectors, (count, N); nothing
        is popped and no counter moves."""
        if len(self._in_vectors) < count:
            raise NetworkQueueEmptyError(
                f"peek needs {count} vector(s), only "
                f"{len(self._in_vectors)} pending")
        out = np.empty((count, self.native_dim), dtype=np.float32)
        for i, vec in zip(range(count), self._in_vectors):
            out[i] = vec
        return out

    @property
    def pending_outputs(self) -> int:
        return len(self._out_vectors)

    # -- NPU side ----------------------------------------------------------

    def pop_input(self, count: int = 1) -> np.ndarray:
        """NPU reads ``count`` vectors from the network (``v_rd NetQ``)."""
        if len(self._in_vectors) < count:
            raise NetworkQueueEmptyError(
                f"v_rd(NetQ) needs {count} vector(s), only "
                f"{len(self._in_vectors)} pending")
        out = np.stack([self._in_vectors.popleft() for _ in range(count)])
        self.vectors_received += count
        return out

    def pop_input_tiles(self, count: int) -> np.ndarray:
        """NPU reads ``count`` matrix tiles (``m_rd NetQ``)."""
        if len(self._in_tiles) < count:
            raise NetworkQueueEmptyError(
                f"m_rd(NetQ) needs {count} tile(s), only "
                f"{len(self._in_tiles)} pending")
        return np.stack([self._in_tiles.popleft() for _ in range(count)])

    def push_output(self, vectors: np.ndarray) -> None:
        """NPU sends vectors to the network (``v_wr NetQ``)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        if vectors.shape[1] != self.native_dim:
            raise MemoryError_(
                f"NetQ output vector length {vectors.shape[1]} != native "
                f"dimension {self.native_dim}")
        for vec in vectors:
            self._out_vectors.append(vec.copy())
        self.vectors_sent += vectors.shape[0]

"""Gradient sparsification with error feedback.

A communication-efficiency technique orthogonal to Ye-Abbe block
coding: each worker uploads only the top-``k`` entries (by magnitude)
of its payload and keeps the rest in a local *error-feedback memory*
that is added back before the next compression (Stich et al.,
"Sparsified SGD with Memory").  Nothing is lost, only delayed.

It composes cleanly with IS-GC because compressed payloads are still
plain vectors (dense storage, mostly zeros here for simplicity): any
conflict-free subset still adds up, and the master's decode is
unchanged.  :class:`CompressedISGCStrategy` wires the compressor into
the IS-GC strategy; ``upload_fraction`` reports the bandwidth saved.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.decoders import Decoder
from ..core.placement import Placement
from ..exceptions import ConfigurationError
from ..simulation.policies import WaitPolicy
from .strategies import ISGCStrategy


class TopKCompressor:
    """Per-worker top-k sparsification with error-feedback memory."""

    def __init__(self, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        self._fraction = fraction
        self._memory: Dict[int, np.ndarray] = {}

    @property
    def fraction(self) -> float:
        return self._fraction

    def memory_of(self, worker: int) -> np.ndarray | None:
        """The worker's residual (a copy), or ``None`` before first use."""
        mem = self._memory.get(worker)
        return mem.copy() if mem is not None else None

    def keep_count(self, dim: int) -> int:
        """How many entries survive compression for a ``dim`` vector."""
        return max(1, int(round(self._fraction * dim)))

    def compress(self, worker: int, vector: np.ndarray) -> np.ndarray:
        """Return the sparse payload; stash the rest in memory.

        The error-feedback update: ``m ← m + v``; transmit ``top_k(m)``;
        ``m ← m − transmitted``.  Every coordinate is eventually sent.
        """
        vec = np.asarray(vector, dtype=float)
        memory = self._memory.get(worker)
        if memory is None:
            memory = np.zeros_like(vec)
        if memory.shape != vec.shape:
            raise ConfigurationError(
                f"worker {worker}: payload shape changed from "
                f"{memory.shape} to {vec.shape}"
            )
        accumulated = memory + vec
        k = self.keep_count(vec.size)
        if k >= vec.size:
            self._memory[worker] = np.zeros_like(vec)
            return accumulated
        # Indices of the k largest magnitudes.
        keep = np.argpartition(np.abs(accumulated), -k)[-k:]
        sent = np.zeros_like(accumulated)
        sent[keep] = accumulated[keep]
        self._memory[worker] = accumulated - sent
        return sent

    def reset(self) -> None:
        """Discard all error-feedback memory."""
        self._memory = {}


class CompressedISGCStrategy(ISGCStrategy):
    """IS-GC with top-k sparsified worker payloads."""

    def __init__(
        self,
        placement: Placement,
        wait_for: int,
        fraction: float,
        rng: np.random.Generator | None = None,
        decoder: Decoder | None = None,
        policy: WaitPolicy | None = None,
    ):
        super().__init__(
            placement, wait_for, rng=rng, decoder=decoder, policy=policy
        )
        self._compressor = TopKCompressor(fraction)
        self.name = f"{self.name}-top{int(round(100 * fraction))}%"

    @property
    def compressor(self) -> TopKCompressor:
        return self._compressor

    def spawn(self, seed):
        """IS-GC's twin with its own, empty error-feedback memory."""
        twin = super().spawn(seed)
        twin._compressor = TopKCompressor(self._compressor.fraction)
        return twin

    @property
    def upload_fraction(self) -> float:
        """Fraction of gradient entries actually shipped per upload."""
        return self._compressor.fraction

    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        full = super().encode(partition_gradients)
        return np.stack([
            self._compressor.compress(worker, payload)
            for worker, payload in enumerate(full)
        ])


def nonzero_fraction(payloads: np.ndarray) -> float:
    """Mean fraction of non-zero entries across the rows of an
    ``(n, D)`` payload block."""
    block = np.asarray(payloads)
    if block.ndim != 2 or not block.size:
        raise ConfigurationError("no payloads to measure")
    return float(np.mean(np.count_nonzero(block, axis=1) / block.shape[1]))

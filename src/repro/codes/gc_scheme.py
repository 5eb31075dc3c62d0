"""End-to-end classic gradient coding (the paper's GC baseline).

Bundles a placement, its coefficient matrix ``B`` and exact decoding
into one object mirroring :class:`repro.core.coding.SummationCode`'s
interface, so the training layer can swap IS-GC and classic GC freely.

Classic GC recovers the *exact* full gradient from any ``n - s``
workers with ``s ≤ c - 1`` — and nothing at all from fewer (the
restriction IS-GC removes).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from ..core.cyclic import CyclicRepetition
from ..core.fractional import FractionalRepetition
from ..core.placement import Placement
from ..exceptions import CodingError
from .gc_matrices import (
    cyclic_b_matrix,
    decode_vector,
    fractional_b_matrix,
    supports_full_recovery,
)


class ClassicGradientCode:
    """Classic GC over an FR or CR placement."""

    def __init__(
        self,
        placement: Placement,
        rng: np.random.Generator | None = None,
    ):
        n = placement.num_workers
        c = placement.partitions_per_worker
        if isinstance(placement, FractionalRepetition):
            b = fractional_b_matrix(n, c)
        elif isinstance(placement, CyclicRepetition):
            b = cyclic_b_matrix(n, c, rng=rng)
        else:
            raise CodingError(
                "classic GC constructions exist for FR and CR placements "
                f"only, got {type(placement).__name__}"
            )
        # The coding support must match the placement: a worker can only
        # weight gradients it actually computes.
        for worker in range(n):
            support = set(np.flatnonzero(b[worker]).tolist())
            stored = set(placement.partitions_of(worker))
            if not support <= stored:
                raise CodingError(
                    f"B-matrix row {worker} uses partitions {support - stored} "
                    "the placement does not store there"
                )
        self._placement = placement
        b.flags.writeable = False  # handed out as copies only
        self._b = b

    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def b_matrix(self) -> np.ndarray:
        """The ``n × n`` coding matrix (a defensive copy)."""
        return self._b.copy()

    @property
    def max_stragglers(self) -> int:
        """``s = c - 1``: the guaranteed straggler tolerance."""
        return self._placement.partitions_per_worker - 1

    @property
    def required_workers(self) -> int:
        """``n - s``: the number of workers the master must wait for."""
        return self._placement.num_workers - self.max_stragglers

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def encode(
        self, partition_gradients: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """All workers' payloads ``payload_i = Σ_p B[i,p] · g_p``."""
        return {
            worker: self.encode_worker(worker, partition_gradients)
            for worker in range(self._placement.num_workers)
        }

    def encode_worker(
        self, worker: int, partition_gradients: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """One worker's weighted-combination payload."""
        parts = self._placement.partitions_of(worker)
        missing = [p for p in parts if p not in partition_gradients]
        if missing:
            raise CodingError(
                f"worker {worker} needs gradients for partitions {missing}"
            )
        payload = np.zeros_like(
            np.asarray(partition_gradients[parts[0]], dtype=float)
        )
        for p in parts:
            coeff = self._b[worker, p]
            if coeff != 0.0:
                payload = payload + coeff * np.asarray(
                    partition_gradients[p], dtype=float
                )
        return payload

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def can_decode(self, available_workers: Iterable[int]) -> bool:
        """Whether the exact full gradient is recoverable from ``W'``."""
        return supports_full_recovery(self._b, sorted(available_workers))

    def decode(
        self,
        available_workers: Iterable[int],
        worker_payloads: Mapping[int, np.ndarray],
    ) -> np.ndarray:
        """Exact full-gradient sum ``Σ_{p=0}^{n-1} g_p`` from survivors.

        Raises :class:`CodingError` when the survivor set is too small or
        otherwise undecodable (IS-GC's motivating failure mode).
        """
        rows = sorted(available_workers)
        missing = [w for w in rows if w not in worker_payloads]
        if missing:
            raise CodingError(f"no payloads for workers {missing}")
        a = decode_vector(self._b, rows)
        total = np.zeros_like(np.asarray(worker_payloads[rows[0]], dtype=float))
        for weight, worker in zip(a, rows):
            if weight != 0.0:
                total = total + weight * np.asarray(
                    worker_payloads[worker], dtype=float
                )
        return total

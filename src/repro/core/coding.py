"""The IS-GC summation code (Sec. IV).

To stay decodable from an *arbitrary* subset of workers, IS-GC restricts
worker-side encoding to coefficient-1 sums: worker ``i`` uploads
``Σ_j g_{D_{i,j}}``.  Any set of workers with pairwise-disjoint
partition sets can then be added directly at the master — no linear
solve, no minimum worker count.

This module carries the numeric half of the pipeline: turning
per-partition gradient vectors into worker payloads and turning a
decoding decision (:class:`repro.types.DecodeResult`) plus payloads into
the partial gradient ``ĝ`` (optionally rescaled to an unbiased estimate
of the full gradient, Assumption 2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from ..exceptions import CodingError
from ..types import DecodeResult
from .placement import Placement


class SummationCode:
    """Encode/decode gradient payloads for a given placement."""

    def __init__(self, placement: Placement):
        self._placement = placement

    @property
    def placement(self) -> Placement:
        return self._placement

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def encode(
        self, partition_gradients: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Compute every worker's payload from per-partition gradients.

        ``partition_gradients`` maps partition index → gradient vector.
        Missing partitions raise; downstream straggler behaviour is
        modelled by *dropping worker payloads*, never by dropping
        partition gradients.
        """
        payloads: Dict[int, np.ndarray] = {}
        for worker in range(self._placement.num_workers):
            payloads[worker] = self.encode_worker(worker, partition_gradients)
        return payloads

    def encode_worker(
        self, worker: int, partition_gradients: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Payload of one worker: the plain sum over its partitions."""
        parts = self._placement.partitions_of(worker)
        missing = [p for p in parts if p not in partition_gradients]
        if missing:
            raise CodingError(
                f"worker {worker} needs gradients for partitions {missing}"
            )
        total = np.array(partition_gradients[parts[0]], dtype=float, copy=True)
        for p in parts[1:]:
            total += partition_gradients[p]
        return total

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def decode_sum(
        self,
        decision: DecodeResult,
        worker_payloads: Mapping[int, np.ndarray],
    ) -> np.ndarray:
        """``ĝ = Σ_{i∈I} g_i``: add the selected workers' payloads."""
        missing = [
            w for w in decision.selected_workers if w not in worker_payloads
        ]
        if missing:
            raise CodingError(
                f"selected workers without payloads: {sorted(missing)}"
            )
        workers = sorted(decision.selected_workers)
        total = np.array(worker_payloads[workers[0]], dtype=float, copy=True)
        for w in workers[1:]:
            total += worker_payloads[w]
        return total

    def decode_unbiased(
        self,
        decision: DecodeResult,
        worker_payloads: Mapping[int, np.ndarray],
    ) -> np.ndarray:
        """Unbiased full-gradient estimate ``(n / |I|) · ĝ`` (Assumption 2).

        With homogeneous stragglers each partition appears in ``I`` with
        equal probability, so scaling the partial sum by ``n / |I|``
        makes its expectation the full gradient sum ``Σ_{i=1}^n g_i``.
        """
        partial = self.decode_sum(decision, worker_payloads)
        scale = self._placement.num_partitions / decision.num_recovered
        return partial * scale


def verify_decode(
    placement: Placement,
    decision: DecodeResult,
    partition_gradients: Mapping[int, np.ndarray],
    decoded: np.ndarray,
    atol: float = 1e-9,
) -> bool:
    """Check ``decoded == Σ_{i∈I} g_i`` against raw partition gradients."""
    expected = np.zeros_like(decoded, dtype=float)
    for p in decision.recovered_partitions:
        expected = expected + np.asarray(partition_gradients[p], dtype=float)
    return bool(np.allclose(decoded, expected, atol=atol))

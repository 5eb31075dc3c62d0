"""The IS-GC summation code (Sec. IV).

To stay decodable from an *arbitrary* subset of workers, IS-GC restricts
worker-side encoding to coefficient-1 sums: worker ``i`` uploads
``Σ_j g_{D_{i,j}}``.  Any set of workers with pairwise-disjoint
partition sets can then be added directly at the master — no linear
solve, no minimum worker count.

This module carries the numeric half of the pipeline: turning the
``(P, D)`` block of per-partition gradients (row ``p`` is ``g_p``) into
the ``(n, D)`` block of worker payloads (row ``i`` is worker ``i``'s
upload) and turning a decoding decision
(:class:`repro.types.DecodeResult`) plus payloads into the partial
gradient ``ĝ`` (optionally rescaled to an unbiased estimate of the
full gradient, Assumption 2).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CodingError
from ..types import DecodeResult
from .placement import Placement


def as_block(rows: np.ndarray, count: int, what: str) -> np.ndarray:
    """``rows`` as a float ``(count, D)`` block, or :class:`CodingError`.

    The one input check of every encode and decode: a block carries
    exactly one row per partition (encode) or per worker (decode).
    """
    block = np.asarray(rows, dtype=float)
    if block.ndim != 2 or block.shape[0] != count:
        raise CodingError(
            f"expected a ({count}, D) block of {what}, "
            f"got shape {block.shape}"
        )
    return block


def add_rows(rows: np.ndarray) -> np.ndarray:
    """``rows[0] + rows[1] + …`` of a ``(k, D)`` block, in index order.

    Bit-equal to copying the first row and adding the rest one by one:
    the start is ``-0.0``, which leaves every first row as it is (an
    all ``-0.0`` column stays ``-0.0``), and numpy adds along a
    non-innermost axis element by element in index order.  A ``(k, 1)``
    block makes the row axis innermost, where numpy would sum pairwise,
    so it accumulates instead.  A sum that starts from zero, where a
    lone ``-0.0`` becomes ``0.0``, is ``add_rows(rows) + 0.0``.
    """
    if rows.shape[1] == 1 and len(rows) > 1:
        return np.add.accumulate(rows, axis=0)[-1]
    return np.add.reduce(rows, axis=0, initial=-0.0)


def partition_index(placement: Placement) -> np.ndarray:
    """Read-only ``(n, c)`` table: row ``i`` is ``partitions_of(i)``.

    Every placement stores exactly ``c`` partitions per worker (the
    :class:`Placement` invariant), so the table is never ragged.
    """
    index = np.array(
        [placement.partitions_of(w) for w in range(placement.num_workers)],
        dtype=np.intp,
    )
    index.flags.writeable = False
    return index


class SummationCode:
    """Encode/decode gradient payloads for a given placement."""

    def __init__(self, placement: Placement):
        self._placement = placement
        self._index = partition_index(placement)

    @property
    def placement(self) -> Placement:
        return self._placement

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        """Every worker's payload from the ``(P, D)`` gradient block.

        Row ``i`` is ``Σ_j g_{partitions_of(i)[j]}``, added in
        ``partitions_of`` order starting from the first partition's row
        — one gather and one in-place add per column of the partition
        index.  A block without exactly one row per partition raises;
        downstream straggler behaviour is modelled by *dropping worker
        payloads*, never by dropping partition gradients.
        """
        block = as_block(
            partition_gradients, self._placement.num_partitions,
            "partition gradients",
        )
        payloads = block[self._index[:, 0]]
        for column in self._index.T[1:]:
            payloads += block[column]
        return payloads

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def decode_sum(
        self, decision: DecodeResult, worker_payloads: np.ndarray
    ) -> np.ndarray:
        """``ĝ = Σ_{i∈I} g_i``: add the selected workers' payload rows."""
        block = as_block(
            worker_payloads, self._placement.num_workers, "worker payloads"
        )
        return add_rows(block[sorted(decision.selected_workers)])

    def decode_unbiased(
        self, decision: DecodeResult, worker_payloads: np.ndarray
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
    partition_gradients: np.ndarray,
    decoded: np.ndarray,
    atol: float = 1e-9,
) -> bool:
    """Check ``decoded == Σ_{i∈I} g_i`` against the raw gradient block."""
    block = as_block(
        partition_gradients, placement.num_partitions, "partition gradients"
    )
    expected = block[sorted(decision.recovered_partitions)].sum(axis=0)
    return bool(np.allclose(decoded, expected, atol=atol))

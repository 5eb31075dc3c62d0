"""The IS-GC summation code (Sec. IV) and the master's one combiner.

To stay decodable from an *arbitrary* subset of workers, IS-GC restricts
worker-side encoding to coefficient-1 sums: worker ``i`` uploads
``Σ_j g_{D_{i,j}}``.  Any set of workers with pairwise-disjoint
partition sets can then be added directly at the master — no linear
solve, no minimum worker count.

This module carries the numeric half of the pipeline: turning the
``(P, D)`` block of per-partition gradients (row ``p`` is ``g_p``) into
the ``(n, D)`` block of worker payloads (row ``i`` is worker ``i``'s
upload), and adding payload rows at the master: every decoder turns a
survivor set into rows and weights ``a`` (IS-GC's are 1, classic GC's
solve ``B_Wᵀa = 𝟙``) that :func:`combine` adds.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def add_rows(rows: np.ndarray, start: float = -0.0) -> np.ndarray:
    """``start + rows[0] + rows[1] + …`` of a ``(k, D)`` block, in index
    order: numpy adds along a non-innermost axis element by element.

    The default ``start``, ``-0.0``, leaves every first row as it is (an
    all ``-0.0`` column stays ``-0.0``), so the sum is bit-equal to
    copying the first row and adding the rest one by one.  A sum that
    starts from zero, where a lone ``-0.0`` becomes ``0.0``, passes
    ``start=0.0``.  A ``(k, 1)`` block makes the row axis innermost,
    where numpy would sum pairwise, so it accumulates instead.
    """
    if rows.shape[1] == 1 and len(rows) > 1:
        return np.add.accumulate(rows, axis=0)[-1] + start
    return np.add.reduce(rows, axis=0, initial=start)


def combine(
    payloads: np.ndarray,
    rows: Sequence[int],
    weights: Optional[np.ndarray] = None,
    start: float = 0.0,
) -> np.ndarray:
    """``start + Σ_k weights[k] · payloads[rows[k]]`` in ``rows`` order,
    over a checked ``(n, D)`` block: the one way the master adds payload
    rows.  ``weights=None`` means unit weights; a zero weight's row is
    left out.  ``start`` is as for :func:`add_rows`.
    """
    if weights is None:
        return add_rows(payloads[rows], start)
    keep = weights != 0.0
    picked = np.asarray(rows, dtype=np.intp)[keep]
    return add_rows(weights[keep, None] * payloads[picked], start)


def coefficients(
    matrix: np.ndarray,
    rows: Sequence[int],
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``v = matrix[rows]ᵀ · weights``: how often :func:`combine` counts
    each partition when row ``i`` of ``matrix`` is worker ``i``'s
    encoding.  ``v = 𝟙`` is the exact full sum."""
    block = np.asarray(matrix, dtype=float)[rows]
    return block.T @ (np.ones(len(block)) if weights is None else weights)


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
    """Encode gradient payloads for a given placement."""

    def __init__(self, placement: Placement):
        self._placement = placement
        self._index = partition_index(placement)

    @property
    def placement(self) -> Placement:
        return self._placement

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

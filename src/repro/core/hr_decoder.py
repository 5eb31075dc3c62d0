"""Decoder for hybrid repetition — Alg. 3 + Alg. 4 of the paper.

The general HR conflict graph is "FR-like within a group, CR-like across
neighbouring groups".  Alg. 3 adapts the CR greedy walk
(:class:`~repro.core.cr_decoder.ChainDecoder` — same walk, same
reducers, different adjacency and seeding):

* start vertices are the available workers of **one random non-empty
  group** (Theorem 8: some maximum independent set touches any group
  with survivors): draw 0 picks the group by
  :func:`~repro.splitmix.bounded_index`, and its survivors start in
  ascending order of draw ``1 + o`` for the survivor ``o`` places into
  the group;
* the clockwise walk admits a candidate iff it conflicts with neither
  the previously admitted vertex nor the start vertex, where conflict is
  Alg. 4's predicate (within-group completeness plus neighbouring-group
  CR spill-over) — exactly adjacency in the conflict graph, whose
  matrix the walk indexes.

Consecutive + wrap checks suffice for pairwise independence by the
observation in Theorem 9 (conflict "monotonicity" along the circle).

Special cases route to simpler algorithms:

* ``c1 = 0`` or ``g = 1`` → the placement *is* CR (Theorems 5–7), so
  nothing is overridden: the inherited Alg. 2 code runs as is;
* ``c2 = 0`` → groups are conflict-isolated; decode each group
  independently with Alg. 2 on its local circle (which degenerates
  to "pick one worker per group" when ``n0 ≤ 2c - 1``, i.e. FR),
  group ``g`` drawing on circle ``g``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import Dict, List

import numpy as np

from ..splitmix import (
    bounded_index,
    bounded_indices,
    counter_hash,
    counter_hashes,
    weyl_terms,
)
from .batch import circulant_adjacency
from .conflict import conflict_graph
from .cr_decoder import ChainDecoder, Segment
from .decoders import CIRCLE
from .hybrid import HybridRepetition


class HRDecoder(ChainDecoder):
    """Alg. 3/4: group-seeded greedy walk with the HR conflict predicate."""

    scheme = "hr"

    def __init__(self, placement: HybridRepetition, *, rng=None, cache=None):
        if not isinstance(placement, HybridRepetition):
            raise TypeError(
                "HRDecoder requires a HybridRepetition placement, "
                f"got {type(placement).__name__}"
            )
        super().__init__(placement, rng=rng, cache=cache)
        if placement.c1 == 0 or placement.num_groups == 1:
            self._mode = "cr"
        elif placement.c2 == 0:
            self._mode = "groups"
        else:
            self._mode = "general"

    @cached_property
    def _adj(self) -> np.ndarray:
        """The global circulant (CR case), one group's local circulant
        (``c2 = 0``), or the conflict graph's matrix (general HR, where
        adjacency is exactly Alg. 4's predicate)."""
        placement: HybridRepetition = self._placement  # type: ignore[assignment]
        if self._mode == "cr":
            return super()._adj
        if self._mode == "groups":
            return circulant_adjacency(
                placement.group_size, placement.partitions_per_worker
            )
        return conflict_graph(placement).adjacency

    @cached_property
    def _circle_terms(self) -> np.ndarray:
        """Weyl terms of circle ``g``'s draws ``0 … c``, row ``g`` per
        group (``c2 = 0``: group ``g``'s window)."""
        placement: HybridRepetition = self._placement  # type: ignore[assignment]
        return weyl_terms(
            np.arange(placement.num_groups)[:, None] * CIRCLE
            + np.arange(placement.partitions_per_worker + 1)
        )

    @cached_property
    def _start_terms(self) -> np.ndarray:
        """Weyl terms of draws ``0 … n0``: general HR's group draw and
        one draw per survivor of the group."""
        return weyl_terms(np.arange(self._placement.group_size + 1))  # type: ignore[attr-defined]

    def _segments(self, members: List[int], stream: int) -> List[Segment]:
        if self._mode == "cr":
            return super()._segments(members, stream)
        n0 = self._placement.group_size  # type: ignore[attr-defined]
        if self._mode == "groups":
            # Alg. 2 per non-empty group, on circle-local ids.
            by_group: Dict[int, List[int]] = {}
            for worker in members:
                by_group.setdefault(worker // n0, []).append(worker % n0)
            return [
                (group, local, self._window(local, stream, group))
                for group, local in by_group.items()
            ]
        # Alg. 3: seed one random non-empty group and start from each
        # of its survivors — "as long as i is randomly permutated,
        # gradients on each worker have an equal chance".
        groups = sorted({worker // n0 for worker in members})
        group = groups[bounded_index(counter_hash(stream, 0), len(groups))]
        base = group * n0
        at = bisect_left(members, base)
        first = 1 - base
        starts = sorted(
            members[at:bisect_left(members, base + n0, at)],
            key=lambda v: counter_hash(stream, first + v) << 32 | v,
        )
        return [(0, members, starts)]

    def _batch_segments(self, avail, streams):
        if self._mode == "cr":
            return super()._batch_segments(avail, streams)
        placement: HybridRepetition = self._placement  # type: ignore[assignment]
        g, n0 = placement.num_groups, placement.group_size
        cells = avail.reshape(-1, n0)
        if self._mode == "groups":
            seg_rows = np.flatnonzero(cells.any(axis=1))
            return seg_rows, self._windows(
                cells[seg_rows],
                streams[seg_rows // g],
                self._circle_terms[seg_rows % g],
            )
        words = counter_hashes(streams[:, None], self._start_terms)
        rank = cells.any(axis=1).reshape(-1, g).cumsum(axis=1)
        index = bounded_indices(words[:, 0], rank[:, -1])
        group = (rank > index[:, None]).argmax(axis=1)
        vertex = group[:, None] * n0 + np.argsort(
            words[:, 1:], axis=1, kind="stable"
        )
        valid = np.take_along_axis(avail, vertex, axis=1)
        return np.arange(avail.shape[0]), (valid.sum(axis=1), vertex[valid])

"""Decoder for hybrid repetition — Alg. 3 + Alg. 4 of the paper.

The general HR conflict graph is "FR-like within a group, CR-like across
neighbouring groups".  Alg. 3 adapts the CR greedy walk
(:class:`~repro.core.cr_decoder.ChainDecoder` — same walk, same
reducers, different adjacency and seeding):

* start vertices are the available workers of **one random non-empty
  group** (Theorem 8: some maximum independent set touches any group
  with survivors);
* the clockwise walk admits a candidate iff it conflicts with neither
  the previously admitted vertex nor the start vertex, where conflict is
  Alg. 4's predicate (within-group completeness plus neighbouring-group
  CR spill-over) — exactly adjacency in the conflict graph, whose
  matrix the walk indexes.

Consecutive + wrap checks suffice for pairwise independence by the
observation in Theorem 9 (conflict "monotonicity" along the circle).

Special cases route to simpler algorithms:

* ``c1 = 0`` or ``g = 1`` → the placement *is* CR (Theorems 5–7), so
  nothing is overridden: the inherited Alg. 2 code runs as is, under
  HR's own memo kind;
* ``c2 = 0`` → groups are conflict-isolated; decode each group
  independently with Alg. 2 on its local circle (which degenerates
  to "pick one worker per group" when ``n0 ≤ 2c - 1``, i.e. FR).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List

import numpy as np

from .batch import circulant_adjacency
from .conflict import conflict_graph
from .cr_decoder import ChainDecoder, Segment
from .decoders import register_decoder
from .hybrid import HybridRepetition


@register_decoder("hr")
class HRDecoder(ChainDecoder):
    """Alg. 3/4: group-seeded greedy walk with the HR conflict predicate."""

    def __init__(self, placement: HybridRepetition, *, rng=None, cache=None):
        if not isinstance(placement, HybridRepetition):
            raise TypeError(
                "HRDecoder requires a HybridRepetition placement, "
                f"got {type(placement).__name__}"
            )
        super().__init__(placement, rng=rng, cache=cache)
        if placement.c1 == 0 or placement.num_groups == 1:
            self._kind = "hr-cr-chain"
        elif placement.c2 == 0:
            self._kind = "hr-group-chain"
        else:
            self._kind = "hr-general-chain"

    @cached_property
    def _adj(self) -> np.ndarray:
        """The global circulant (CR case), one group's local circulant
        (``c2 = 0``), or the conflict graph's matrix (general HR, where
        adjacency is exactly Alg. 4's predicate)."""
        placement: HybridRepetition = self._placement  # type: ignore[assignment]
        if self._kind == "hr-cr-chain":
            return super()._adj
        if self._kind == "hr-group-chain":
            return circulant_adjacency(
                placement.group_size, placement.partitions_per_worker
            )
        return conflict_graph(placement).adjacency

    def _draw_starts(self, members: List[int]) -> List[Segment]:
        if self._kind == "hr-cr-chain":
            return super()._draw_starts(members)
        n0 = self._placement.group_size  # type: ignore[attr-defined]
        by_group: Dict[int, List[int]] = {}
        for worker in members:
            by_group.setdefault(worker // n0, []).append(worker)
        if self._kind == "hr-group-chain":
            # Alg. 2 per non-empty group, on circle-local ids.
            segments = []
            for group, workers in by_group.items():
                local = [worker - group * n0 for worker in workers]
                segments.append((group, local, self._draw_window(local)))
            return segments
        # Alg. 3: seed one random non-empty group and start from each
        # of its survivors — "as long as i is randomly permutated,
        # gradients on each worker have an equal chance".
        groups = list(by_group)
        starts = by_group[groups[int(self._rng.integers(len(groups)))]]
        self._rng.shuffle(starts)
        return [(0, members, starts)]

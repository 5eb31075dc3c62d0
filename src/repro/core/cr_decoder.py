"""Decoder for cyclic repetition — Alg. 2 of the paper — and the one
clockwise greedy walk Alg. 3 (hybrid repetition) shares with it.

Selecting workers whose payloads can all be added is a maximum-
independent-set problem on the circulant conflict graph ``C_n^{1..c-1}``
restricted to ``W'``.  Alg. 2 exploits the circular structure:

1. pick a random available vertex ``u`` (fairness);
2. for each available start vertex in the clockwise window
   ``{u, u+1, …, u+c-1}`` (at most ``c`` starts — Theorem 3 proves one
   of them seeds a *maximum* independent set);
3. from each start, walk clockwise greedily, adding any available
   vertex that conflicts with neither the previously added vertex nor
   the start (Theorem 2: this yields a maximal set);
4. keep the largest set found.

Alg. 3 is the same procedure with a different conflict relation and a
different seeding rule, so everything but the fairness draws lives in
:class:`ChainDecoder`: the walk itself is
:func:`~repro.core.batch.greedy_chain` (per mask) and
:func:`~repro.core.batch.batched_greedy_chains` (per batch), both run
under the decoder's adjacency matrix; the window of step 2 is
:func:`~repro.core.batch.window_starts`; step 4 is the looped reducer
in :meth:`ChainDecoder._decode` and the batched one in
:meth:`ChainDecoder._best_chains_batch`.

``starts="all"`` replaces the window with every available vertex —
an O(|W'|²/c) belt-and-braces mode used by tests to confirm the window
heuristic loses nothing.

Nothing here is memoised: a walk is linear in ``|W'|`` and the
fairness draws that seed it stay live, so a memo of chains costs more
than it saves; ``cache`` is accepted and ignored.
"""

from __future__ import annotations

from functools import cached_property
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .batch import (
    BatchDecodeResult,
    MaskBatch,
    batched_greedy_chains,
    circulant_adjacency,
    greedy_chain,
    mask_members,
    masks_to_array,
    segment_argmax,
    window_starts,
)
from .cyclic import CyclicRepetition
from .decoders import Decoder, Selection

#: one segment of greedy walks: the circle it runs on (``0`` unless the
#: adjacency covers one group of several), that circle's available
#: vertices in ascending circle-local ids, and the shuffled starts.
Segment = Tuple[int, List[int], List[int]]


class ChainDecoder(Decoder):
    """Alg. 2 on the placement's worker circle, as the skeleton Alg. 3
    reuses: subclasses choose the adjacency the walk runs under
    (:attr:`_adj`) and — when not Alg. 2's window — the fairness draws
    (:meth:`_draw_starts`).

    The adjacency may cover the whole circle or one group of it (HR
    with ``c2 = 0``: ``g`` conflict-isolated ``n0``-circles); walks
    then run per group on circle-local ids and their winners union.
    """

    @cached_property
    def _adj(self) -> np.ndarray:
        """The conflict adjacency the walks run under: Theorem 1's
        circulant ``C_n^{1..c-1}``."""
        return circulant_adjacency(
            self._placement.num_workers,
            self._placement.partitions_per_worker,
        )

    @cached_property
    def _adj_rows(self) -> List[List[bool]]:
        """:attr:`_adj` as nested lists, for the scalar walk."""
        return self._adj.tolist()

    def _search_tables(self):
        return self._adj, self._adj_rows

    def _draw_window(self, members: List[int]) -> List[int]:
        """Alg. 2's fairness draws on one circle: a uniform available
        seed vertex ``u``, then the available members of its
        ``c``-window in random order.

        Ties between equal-size chains go to the earliest start, so
        the start order must be random for the paper's fairness
        guarantee (every worker equally likely to contribute under
        homogeneous stragglers).
        """
        starts = window_starts(
            members,
            int(self._rng.integers(len(members))),
            self._placement.partitions_per_worker,
            len(self._adj_rows),
        )
        self._rng.shuffle(starts)
        return starts

    def _draw_starts(self, members: List[int]) -> List[Segment]:
        """All fairness draws for one mask (``members``: its ascending
        worker ids), in the order both decode paths consume them."""
        return [(0, members, self._draw_window(members))]

    def _decode(self, available: FrozenSet[int]) -> Selection:
        rows = self._adj_rows
        size = len(rows)
        grouped = size != self._placement.num_workers
        selected: List[int] = []
        searches = 0
        for circle, local, starts in self._draw_starts(sorted(available)):
            searches += len(starts)
            best: FrozenSet[int] = frozenset()
            for start in starts:
                chain = greedy_chain(rows, local, start)
                if len(chain) > len(best):
                    best = chain
            if not grouped:
                # One circle: its winner is the selection as is.
                return Selection(best, searches)
            selected.extend(circle * size + v for v in best)
        return Selection(frozenset(selected), searches)

    def decode_batch(self, masks: MaskBatch) -> BatchDecodeResult:
        """Vectorized Algs. 2/3 across a whole mask batch.

        Phase 1 draws the fairness RNG per mask in batch order, with
        identical generator consumption to the looped path.  Phase 2
        runs every (mask, start) greedy chain at once through the
        adjacency kernel (no RNG).  Phase 3 keeps, per segment, the
        first strictly-largest chain in shuffled start order — the
        looped tie-break, vectorized.
        """
        avail, _ = masks_to_array(masks, self._placement.num_workers)
        circles = avail.shape[1] // self._adj.shape[0]
        seg_rows: List[int] = []
        counts: List[int] = []
        starts: List[int] = []
        searches: List[int] = []
        for i, members in enumerate(mask_members(avail)):
            before = len(starts)
            for circle, _, seg_starts in self._draw_starts(members):
                seg_rows.append(i * circles + circle)
                counts.append(len(seg_starts))
                starts.extend(seg_starts)
            searches.append(len(starts) - before)
        selected = self._best_chains_batch(avail, seg_rows, counts, starts)
        return self._finalize_batch(avail, selected, searches)

    def _best_chains_batch(
        self,
        avail: np.ndarray,
        seg_rows: Sequence[int],
        counts: Sequence[int],
        starts: Sequence[int],
    ) -> np.ndarray:
        """Run every walk of a batch and keep each segment's winner.

        Segment ``j`` is ``counts[j]`` consecutive ``starts`` on circle
        ``seg_rows[j]`` (a row of ``avail`` viewed one circle per row).
        Returns the ``avail``-shaped selection.
        """
        adj = self._adj
        size = adj.shape[0]
        rows = avail.reshape(-1, size)
        walk_row = np.repeat(np.asarray(seg_rows, dtype=np.intp), counts)
        chains = batched_greedy_chains(
            adj, rows[walk_row], np.asarray(starts, dtype=np.intp)
        )
        best = segment_argmax(chains.sum(axis=1), counts)
        selected = np.zeros(avail.shape, dtype=bool)
        winners = selected.reshape(-1, size)  # a view: one circle per row
        winners[seg_rows] = chains[best]
        return selected


class CRDecoder(ChainDecoder):
    """Alg. 2: windowed greedy search over the worker circle."""

    scheme = "cr"

    def __init__(
        self,
        placement: CyclicRepetition,
        *,
        rng=None,
        starts: str = "window",
        cache=None,
    ):
        if not isinstance(placement, CyclicRepetition):
            raise TypeError(
                "CRDecoder requires a CyclicRepetition placement, "
                f"got {type(placement).__name__}"
            )
        if starts not in ("window", "all"):
            raise ConfigurationError(
                f"starts must be 'window' or 'all', got {starts!r}"
            )
        super().__init__(placement, rng=rng, cache=cache)
        self._starts = starts

    def _draw_starts(self, members: List[int]) -> List[Segment]:
        if self._starts == "window":
            return super()._draw_starts(members)
        starts = list(members)
        self._rng.shuffle(starts)
        return [(0, members, starts)]

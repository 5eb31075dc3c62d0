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
different seeding rule, so everything but the choice of starts lives in
:class:`ChainDecoder`: the walk itself is
:func:`~repro.core.batch.greedy_chain` (per mask) and
:func:`~repro.core.batch.batched_greedy_chains` (per batch), both run
under the decoder's adjacency matrix; the window of step 2 is
:func:`~repro.core.batch.window_starts`; step 4 is the looped reducer
in :meth:`ChainDecoder._decode` and the batched one in
:meth:`ChainDecoder._best_chains_batch`.

The fairness draws of one circle (see :mod:`repro.core.decoders`):
the seed vertex is the available member
:func:`~repro.splitmix.bounded_index` of draw 0 picks, and the
window's starts run in ascending order of draw ``1 + o`` for the start
``o`` steps clockwise of the seed, ties broken by ``o``.
:meth:`ChainDecoder._window` draws them on Python ints for one mask
and :meth:`ChainDecoder._windows` as arrays for a batch.

``starts="all"`` replaces the window with every available vertex, in
ascending order of draw ``v`` for vertex ``v`` — an O(|W'|²/c)
belt-and-braces mode used by tests to confirm the window heuristic
loses nothing.

Nothing here is memoised: a walk is linear in ``|W'|``, so a memo of
chains costs more than it saves; ``cache`` is accepted and ignored.
"""

from __future__ import annotations

from functools import cached_property
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..splitmix import (
    bounded_index,
    bounded_indices,
    counter_hash,
    counter_hashes,
    weyl_terms,
)
from .batch import (
    BatchDecodeResult,
    MaskBatch,
    batched_greedy_chains,
    circulant_adjacency,
    greedy_chain,
    masks_to_array,
    segment_argmax,
    window_starts,
)
from .cyclic import CyclicRepetition
from .decoders import CIRCLE, Decoder, Selection

#: one segment of greedy walks: the circle it runs on (``0`` unless the
#: adjacency covers one group of several), that circle's available
#: vertices in ascending circle-local ids, and its starts in draw order.
Segment = Tuple[int, List[int], List[int]]

#: ``(counts, starts)`` of a batch's segments: walks per segment, and
#: every segment's starts in draw order, concatenated.
Starts = Tuple[np.ndarray, np.ndarray]


class ChainDecoder(Decoder):
    """Alg. 2 on the placement's worker circle, as the skeleton Alg. 3
    reuses: subclasses choose the adjacency the walk runs under
    (:attr:`_adj`) and — when not Alg. 2's window — the fairness draws
    (:meth:`_segments` per mask, :meth:`_batch_segments` per batch).

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

    @cached_property
    def _window_terms(self) -> np.ndarray:
        """Weyl terms of circle 0's draws ``0 … c``: the seed draw and
        one draw per window offset."""
        return weyl_terms(
            np.arange(self._placement.partitions_per_worker + 1)
        )

    def _window(
        self, members: List[int], stream: int, circle: int = 0
    ) -> List[int]:
        """Alg. 2's fairness draws on ``circle`` of the decode keyed
        ``stream``: a uniform available seed vertex ``u``, then the
        available members of its ``c``-window in random order.

        Ties between equal-size chains go to the earliest start, so
        the start order must be random for the paper's fairness
        guarantee (every worker equally likely to contribute under
        homogeneous stragglers).
        """
        size = len(self._adj_rows)
        base = circle * CIRCLE
        index = bounded_index(counter_hash(stream, base), len(members))
        starts = window_starts(
            members, index, self._placement.partitions_per_worker, size
        )
        if len(starts) > 1:
            seed, first = members[index], base + 1

            def order(vertex: int) -> int:
                # The draw's word, ties broken by the offset from ``u``.
                offset = (vertex - seed) % size
                return counter_hash(stream, first + offset) << 32 | offset

            starts.sort(key=order)
        return starts

    def _windows(
        self, rows: np.ndarray, streams: np.ndarray, terms: np.ndarray
    ) -> Starts:
        """:meth:`_window` for every row of ``rows`` (one circle's
        availability each, none empty) under its decode's key in
        ``streams``, with ``terms`` the Weyl terms of its circle's
        draws ``0 … c`` (a row of them, or one per row)."""
        size = rows.shape[1]
        words = counter_hashes(streams[:, None], terms)
        rank = rows.cumsum(axis=1, dtype=np.min_scalar_type(size))
        index = bounded_indices(words[:, 0], rank[:, -1])
        seed = (rank > index[:, None]).argmax(axis=1)
        # Offsets in ascending word order; a stable sort breaks ties by
        # offset, and unavailable offsets drop out after it.
        vertex = seed[:, None] + np.argsort(words[:, 1:], axis=1, kind="stable")
        vertex[vertex >= size] -= size
        valid = np.take_along_axis(rows, vertex, axis=1)
        return valid.sum(axis=1), vertex[valid]

    def _segments(self, members: List[int], stream: int) -> List[Segment]:
        """All fairness draws for one mask (``members``: its ascending
        worker ids; ``stream``: its decode's key)."""
        return [(0, members, self._window(members, stream))]

    def _batch_segments(
        self, avail: np.ndarray, streams: np.ndarray
    ) -> Tuple[np.ndarray, Starts]:
        """:meth:`_segments` for a whole batch: each segment's row of
        ``avail`` viewed one circle per row, and its walks."""
        return np.arange(avail.shape[0]), self._windows(
            avail, streams, self._window_terms
        )

    def _decode(self, available: FrozenSet[int], stream: int) -> Selection:
        rows = self._adj_rows
        size = len(rows)
        grouped = size != self._placement.num_workers
        selected: List[int] = []
        searches = 0
        for circle, local, starts in self._segments(sorted(available), stream):
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

        Phase 1 hashes every row's fairness draws at once: row ``i``'s
        are decode ``decode_count + i``'s, by the stream's definition.
        Phase 2 runs every (mask, start) greedy chain at once through
        the adjacency kernel.  Phase 3 keeps, per segment, the first
        strictly-largest chain in draw order — the looped tie-break,
        vectorized.
        """
        avail, _ = masks_to_array(masks, self._placement.num_workers)
        streams = self._stream_keys(avail.shape[0])
        seg_rows, (counts, starts) = self._batch_segments(avail, streams)
        selected = self._best_chains_batch(avail, seg_rows, counts, starts)
        circles = avail.shape[1] // self._adj.shape[0]
        searches = np.bincount(
            seg_rows // circles, weights=counts, minlength=avail.shape[0]
        ).astype(np.intp)
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

    @cached_property
    def _vertex_terms(self) -> np.ndarray:
        """Weyl terms of draws ``0 … n-1``: one per vertex (``all``)."""
        return weyl_terms(np.arange(self._placement.num_workers))

    def _segments(self, members: List[int], stream: int) -> List[Segment]:
        if self._starts == "window":
            return super()._segments(members, stream)
        starts = sorted(
            members, key=lambda v: counter_hash(stream, v) << 32 | v
        )
        return [(0, members, starts)]

    def _batch_segments(self, avail, streams):
        if self._starts == "window":
            return super()._batch_segments(avail, streams)
        words = counter_hashes(streams[:, None], self._vertex_terms)
        vertex = np.argsort(words, axis=1, kind="stable")
        valid = np.take_along_axis(avail, vertex, axis=1)
        return np.arange(avail.shape[0]), (valid.sum(axis=1), vertex[valid])

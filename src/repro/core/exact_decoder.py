"""Exact-MIS reference decoder.

Works for *any* placement by solving the maximum-independent-set
problem on the induced conflict subgraph with the memoised bitset
search of :mod:`repro.graphs.independent_set`.  This is the ground
truth the linear-time scheme decoders are validated against, and the
decoder of last resort for custom placements.

To preserve the paper's fairness property, when several maximum
independent sets exist one is chosen uniformly at random: the one
:func:`~repro.splitmix.bounded_index` of draw 0 on circle 0 of the
decode's stream (see :mod:`repro.core.decoders`) picks.  The search
is the one decode worth memoising: the canonically ordered optima of
a mask go into a :class:`~repro.parallel.DecodeCache`, held beside the
conflict graph as a placement-only table that :meth:`~Decoder.fork`
shares, and the fair draw over them is made afresh per decode.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.independent_set import all_maximum_independent_sets
from ..parallel.cache import DecodeCache
from ..splitmix import (
    bounded_index,
    bounded_indices,
    counter_hash,
    counter_hashes,
    weyl_terms,
)
from .batch import BatchDecodeResult, MaskBatch, masks_to_array
from .conflict import conflict_graph
from .decoders import Decoder, Selection
from .placement import Placement

#: The Weyl term of draw 0, the pick among optima.
_FIRST = weyl_terms([0])


class ExactDecoder(Decoder):
    """Exact MIS decoder for arbitrary placements: a uniform draw over
    every maximum independent set of ``G[W']``."""

    scheme = "exact"

    def __init__(
        self,
        placement: Placement,
        *,
        rng=None,
        cache: DecodeCache | None = None,
    ):
        super().__init__(placement, rng=rng)
        # Both are built here, so every fork shares them as they are.
        self._graph: Graph = conflict_graph(placement)
        self._cache = DecodeCache() if cache is None else cache

    @property
    def cache(self) -> DecodeCache:
        """The memo of optima per availability mask."""
        return self._cache

    def _optima(self, available: FrozenSet[int]) -> Tuple[FrozenSet[int], ...]:
        return tuple(all_maximum_independent_sets(self._graph, available))

    def _decode(self, available: FrozenSet[int], stream: int) -> Selection:
        # The optima list is canonically ordered (pure in the induced
        # subgraph), so it memoises; the uniform index draw below is
        # the decode's own.
        optima = self._cache.get_or_compute(
            self._placement.fingerprint, "exact-optima", available,
            lambda: self._optima(available),
        )
        pick = bounded_index(counter_hash(stream, 0), len(optima))
        return Selection(optima[pick], 1)

    def decode_batch(self, masks: MaskBatch) -> BatchDecodeResult:
        """Batched exact decoding: one memo pass, then fairness draws.

        The search is pure in the induced subgraph, so the whole batch
        resolves through one
        :meth:`~repro.parallel.DecodeCache.get_or_compute_batch`
        hit/miss partition; only the misses are solved.  The uniform
        index draws of every row are then hashed at once: row ``i``'s
        is decode ``decode_count + i``'s.
        """
        placement: Placement = self._placement
        avail, originals = masks_to_array(masks, placement.num_workers)
        num_masks = avail.shape[0]
        if originals is not None:
            fsets = [frozenset(m) for m in originals]
        else:
            fsets = [
                frozenset(np.flatnonzero(row).tolist()) for row in avail
            ]

        values = self._cache.get_or_compute_batch(
            placement.fingerprint, "exact-optima", fsets,
            lambda missing: [self._optima(fs) for fs in missing],
        )
        words = counter_hashes(self._stream_keys(num_masks), _FIRST)
        picks = bounded_indices(
            words, np.fromiter(map(len, values), np.uint64, num_masks)
        ).tolist()
        selected = np.zeros_like(avail)
        for i, (optima, pick) in enumerate(zip(values, picks)):
            selected[i, list(optima[pick])] = True
        return self._finalize_batch(
            avail, selected, np.ones(num_masks, dtype=np.intp)
        )

"""Exact-MIS reference decoder.

Works for *any* placement by solving the maximum-independent-set
problem on the induced conflict subgraph with the memoised bitset
search of :mod:`repro.graphs.independent_set`.  This is the ground
truth the linear-time scheme decoders are validated against, and the
decoder of last resort for custom placements.

To preserve the paper's fairness property, when several maximum
independent sets exist one is chosen uniformly at random.  The search
is the one decode worth memoising: the canonically ordered optima of
a mask go into a :class:`~repro.parallel.DecodeCache`, held beside the
conflict graph as a placement-only table that :meth:`~Decoder.fork`
shares, and the fair draw over them stays live.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.independent_set import all_maximum_independent_sets
from ..parallel.cache import DecodeCache
from .batch import BatchDecodeResult, MaskBatch, masks_to_array
from .conflict import conflict_graph
from .decoders import Decoder, Selection
from .placement import Placement


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

    def _decode(self, available: FrozenSet[int]) -> Selection:
        # The optima list is canonically ordered (pure in the induced
        # subgraph), so it memoises; the uniform index draw below stays
        # live for fairness.
        optima = self._cache.get_or_compute(
            self._placement.fingerprint, "exact-optima", available,
            lambda: self._optima(available),
        )
        chosen = optima[int(self._rng.integers(len(optima)))]
        return Selection(chosen, 1)

    def decode_batch(self, masks: MaskBatch) -> BatchDecodeResult:
        """Batched exact decoding: one memo pass, then fairness draws.

        The search is pure in the induced subgraph, so the whole batch
        resolves through one
        :meth:`~repro.parallel.DecodeCache.get_or_compute_batch`
        hit/miss partition; only the misses are solved.  The uniform
        index draws then run per mask in batch order — after the
        searches but in the identical stream positions as the looped
        path, which also never draws *during* a search.
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
        selected = np.zeros_like(avail)
        for i, optima in enumerate(values):
            chosen = optima[int(self._rng.integers(len(optima)))]
            selected[i, list(chosen)] = True
        return self._finalize_batch(
            avail, selected, np.ones(num_masks, dtype=np.intp)
        )

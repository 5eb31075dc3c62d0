"""Decoder for fractional repetition — Alg. 1 of the paper.

All workers in an FR group carry identical payloads (the sum of the
group's partitions), so the master simply keeps one *random* survivor
per non-empty group.  Complexity O(|W'|); randomness keeps the fairness
guarantee (every worker — hence every partition — equally likely to
contribute when stragglers are homogeneous).

Group ``k`` of a mask with ``s_k`` survivors keeps its ``d_k``-th
survivor in ascending order, where ``d_k`` is
:func:`~repro.splitmix.bounded_index` of draw ``k`` on circle 0 of the
decode's stream (see :mod:`repro.core.decoders`): uniform in
``[0, s_k)``, and a function of the decode and the group alone.  So
the selection depends only on the set of available workers, never on
the order the caller listed them in, and a batch hashes every
``(mask, group)`` draw in one array pass.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List

import numpy as np

from ..splitmix import (
    bounded_index,
    bounded_indices,
    counter_hash,
    counter_hashes,
    weyl_terms,
)
from .batch import BatchDecodeResult, MaskBatch, masks_to_array
from .decoders import Decoder, Selection
from .fractional import FractionalRepetition


class FRDecoder(Decoder):
    """Alg. 1: one random available worker per FR group.

    A mask's selection is a function of its set of ids and its
    decode's stream alone.  Fairness: each group's draw is uniform over
    its survivors.

    Deliberately uncached: decoding is already O(|W'|) — there is no
    search kernel worth memoising.
    """

    scheme = "fr"

    def __init__(
        self,
        placement: FractionalRepetition,
        *,
        rng=None,
        cache=None,
    ):
        if not isinstance(placement, FractionalRepetition):
            raise TypeError(
                "FRDecoder requires a FractionalRepetition placement, "
                f"got {type(placement).__name__}"
            )
        super().__init__(placement, rng=rng, cache=cache)

    @cached_property
    def _group_terms(self) -> np.ndarray:
        """Weyl terms of the group ids: draw ``k`` is group ``k``'s."""
        placement = self._placement
        return weyl_terms(
            np.arange(
                placement.num_workers // placement.partitions_per_worker
            )
        )

    def _decode(self, available: FrozenSet[int], stream: int) -> Selection:
        c = self._placement.partitions_per_worker
        by_group: Dict[int, List[int]] = {}
        for worker in sorted(available):
            by_group.setdefault(worker // c, []).append(worker)
        picks = []
        for group, survivors in by_group.items():
            # A lone survivor's draw is 0 whatever its word.
            pick = 0
            if len(survivors) > 1:
                word = counter_hash(stream, group)
                pick = bounded_index(word, len(survivors))
            picks.append(survivors[pick])
        return Selection(frozenset(picks), 1)

    def decode_batch(self, masks: MaskBatch) -> BatchDecodeResult:
        """Batched Alg. 1: validate up front, then hash the draw of
        every non-empty ``(mask, group)`` cell at once.

        Each cell's survivors are ranked by a running count, whose last
        entry bounds the cell's draw ``d`` and whose first entry past
        ``d`` marks the pick.
        """
        avail, _ = masks_to_array(masks, self._placement.num_workers)
        c = self._placement.partitions_per_worker
        groups = self._group_terms.shape[0]
        rank = avail.reshape(-1, c).cumsum(
            axis=1, dtype=np.min_scalar_type(c)
        )
        cells = np.flatnonzero(rank[:, -1])
        rank = rank[cells]
        streams = self._stream_keys(avail.shape[0])
        words = counter_hashes(
            streams[cells // groups], self._group_terms[cells % groups]
        )
        draws = bounded_indices(words, rank[:, -1])
        selected = np.zeros(avail.shape, dtype=bool)
        selected.reshape(-1)[
            cells * c + (rank > draws[:, None]).argmax(axis=1)
        ] = True
        return self._finalize_batch(
            avail, selected, np.ones(avail.shape[0], dtype=np.intp)
        )

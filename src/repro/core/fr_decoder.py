"""Decoder for fractional repetition — Alg. 1 of the paper.

All workers in an FR group carry identical payloads (the sum of the
group's partitions), so the master simply keeps one *random* survivor
per non-empty group.  Complexity O(|W'|); randomness keeps the fairness
guarantee (every worker — hence every partition — equally likely to
contribute when stragglers are homogeneous).

A mask's draws are one bounded ``integers`` call over its non-empty
groups in ascending order: group ``k`` gets an index ``d_k`` uniform in
``[0, s_k)`` over its ``s_k`` survivors, and its ``d_k``-th survivor in
ascending order is kept.  One call over an array of bounds consumes
exactly the scalar calls in sequence, so a whole batch's draws — mask
by mask, each mask's groups ascending — are one call as well, and the
selection depends only on the set of available workers, never on the
order the caller listed them in.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

import numpy as np

from .batch import BatchDecodeResult, MaskBatch, masks_to_array
from .decoders import Decoder, Selection
from .fractional import FractionalRepetition


class FRDecoder(Decoder):
    """Alg. 1: one random available worker per FR group.

    Groups draw in ascending order, so a mask's selection is a function
    of its set of ids (and the generator) alone.  Fairness: each
    group's draw is uniform over its survivors.

    Deliberately uncached: decoding is already O(|W'|) — there is no
    search kernel worth memoising, and the per-group RNG draws must
    stay live for fairness anyway.
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

    def _decode(self, available: FrozenSet[int]) -> Selection:
        c = self._placement.partitions_per_worker
        by_group: Dict[int, List[int]] = {}
        for worker in sorted(available):
            by_group.setdefault(worker // c, []).append(worker)
        survivors = list(by_group.values())
        draws = self._rng.integers(0, [len(s) for s in survivors]).tolist()
        return Selection(
            frozenset(s[d] for s, d in zip(survivors, draws)), 1
        )

    def decode_batch(self, masks: MaskBatch) -> BatchDecodeResult:
        """Batched Alg. 1: validate up front, then draw every non-empty
        ``(mask, group)`` cell, in row-major order, in one ``integers``
        call — the looped path's order, so selections and the generator
        stream are bit-for-bit those of looping ``decode``.

        Each cell's survivors are ranked by a running count, whose last
        entry bounds the cell's draw ``d`` and whose first entry past
        ``d`` marks the pick.
        """
        avail, _ = masks_to_array(masks, self._placement.num_workers)
        c = self._placement.partitions_per_worker
        by_cell = avail.reshape(-1, c)
        cells = np.flatnonzero(by_cell.any(axis=1))
        rank = by_cell[cells].cumsum(axis=1, dtype=np.min_scalar_type(c))
        draws = self._rng.integers(0, rank[:, -1])
        selected = np.zeros(avail.shape, dtype=bool)
        selected.reshape(-1)[
            cells * c + (rank > draws[:, None]).argmax(axis=1)
        ] = True
        return self._finalize_batch(
            avail, selected, np.ones(avail.shape[0], dtype=np.intp)
        )

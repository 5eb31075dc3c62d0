"""Decoder for fractional repetition — Alg. 1 of the paper.

All workers in an FR group carry identical payloads (the sum of the
group's partitions), so the master simply keeps one *random* survivor
per non-empty group.  Complexity O(|W'|); randomness keeps the fairness
guarantee (every worker — hence every partition — equally likely to
contribute when stragglers are homogeneous).

A mask's draws are one bounded ``integers`` call: group ``k`` gets an
index ``d_k`` uniform in ``[0, s_k)`` over its ``s_k`` survivors, and
its ``d_k``-th survivor in ascending order is kept.  That is the stream
of one ``Generator.choice`` per group — ``choice`` over ``s`` items
consumes exactly ``integers(0, s)``, and one call over an array of
bounds consumes exactly the scalar calls in sequence — so a whole
batch's draws are one call as well.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, List

import numpy as np

from .batch import BatchDecodeResult, MaskBatch, mask_members, masks_to_array
from .decoders import Decoder, Selection, register_decoder
from .fractional import FractionalRepetition


@register_decoder("fr")
class FRDecoder(Decoder):
    """Alg. 1: one random available worker per FR group.

    Groups draw in the order each first appears in the mask's frozenset
    iteration, which is not always ascending and — for the same ids —
    depends on the order the caller listed them in: passing a mask
    reversed changes the selection on about 1 in 60–110 random masks
    at ``FR(48, 3)``.  Fairness holds either way (each group's draw is
    uniform over its survivors); the order is part of the recorded
    stream, so making it canonical is a stream-definition change.

    Deliberately uncached: decoding is already O(|W'|) — there is no
    search kernel worth memoising, and the per-group RNG draws must
    stay live for fairness anyway.
    """

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
        for worker in available:
            by_group.setdefault(worker // c, []).append(worker)
        survivors = list(by_group.values())
        draws = self._rng.integers(0, [len(s) for s in survivors]).tolist()
        return Selection(
            frozenset(sorted(s)[d] for s, d in zip(survivors, draws)), 1
        )

    def decode_batch(self, masks: MaskBatch) -> BatchDecodeResult:
        """Batched Alg. 1: validate up front, then draw every group of
        every mask in one ``integers`` call.

        The draws follow the looped path's order — mask by mask, each
        mask's groups in its frozenset iteration order — so selections
        and the generator stream are bit-for-bit those of looping
        ``decode``.  The frozensets are rebuilt from the listed ids, as
        ``decode`` builds them (array rows list their ids ascending);
        listing their groups is the one per-mask Python step.
        """
        avail, originals = masks_to_array(masks, self._placement.num_workers)
        if originals is None:
            fsets: Iterable[FrozenSet] = map(frozenset, mask_members(avail))
        else:
            fsets = (frozenset(list(mask)) for mask in originals)
        return self._finalize_batch(
            avail,
            self._select_batch(avail, fsets),
            np.ones(avail.shape[0], dtype=np.intp),
        )

    def _select_batch(
        self, avail: np.ndarray, fsets: Iterable[FrozenSet]
    ) -> np.ndarray:
        """The ``avail``-shaped selection: each drawn ``(mask, group)``
        cell's survivors are ranked by a running count, whose last entry
        bounds the cell's draw ``d`` and whose first entry past ``d``
        marks the pick."""
        c = self._placement.partitions_per_worker
        num_groups = avail.shape[1] // c
        cells = np.fromiter(
            chain.from_iterable(
                dict.fromkeys(i * num_groups + w // c for w in fs)
                for i, fs in enumerate(fsets)
            ),
            dtype=np.intp,
        )
        rank = avail.reshape(-1, c)[cells].cumsum(
            axis=1, dtype=np.min_scalar_type(c)
        )
        draws = self._rng.integers(0, rank[:, -1])
        selected = np.zeros(avail.shape, dtype=bool)
        selected.reshape(-1)[
            cells * c + (rank > draws[:, None]).argmax(axis=1)
        ] = True
        return selected

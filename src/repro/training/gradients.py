"""The gradient path: one round's per-partition gradients in one call.

Every training loop needs the same step — "for each partition draw its
seeded mini-batch and differentiate the model on it" — and on laptop-
scale partitions that step is almost pure per-call NumPy overhead.
:class:`BatchStreams` owns it once, for all callers (the sync rules,
local-update SGD and the async arrival loop):

1. **Block.**  The partitions live in one padded ``(P, max_n, d)``
   feature block with a matching label block
   (:class:`~repro.training.datasets.Partitions`, built by
   ``partition_dataset``'s single shuffle; the per-partition
   ``Dataset`` objects are views of it).
2. **Draw.**  A round's index rows are one
   :func:`~repro.training.datasets.draw_indices` call: a counter hash
   of (seed, step, pid, k).  The Weyl terms of the partitions
   (``(P, 1)``) and of the draws (``(b_max,)``) are computed once, at
   construction; per round only the round key is hashed, on Python
   ints, and then the row keys and the words as two array hashes.
   Each partition's first row in the flat block is added in place.
   Row ``pid`` alone (an async arrival) is exactly
   :meth:`BatchStream.indices`, which hashes its row key on Python
   ints too, plus that offset.
3. **Gather.**  One ``take`` per batch-size group out of the block.
   ``b_pid = min(batch_size, n_pid)`` and near-equal partitions differ
   by at most one row, so there are at most two groups, each a
   contiguous range of positions (``partition_dataset`` puts the
   larger partitions first) taken as a slice.
4. **Differentiate.**  One ``Model.stacked_loss_and_gradient`` per
   group, at shared ``(D,)`` or per-partition ``(P, D)`` parameters —
   bit-equal, row by row, to evaluating each partition on its own
   (``tests/test_gradient_path.py`` pins that against an independent
   loop and prints the BLAS fingerprint when it fails).  With two
   groups, each writes its slice of one ``(P,)`` / ``(P, D)`` output.

The ``(P, D)`` gradient block is what the update rule hands on: the
strategy's ``encode`` turns it into the ``(n, D)`` payload block and
``decode`` adds payload rows, so no round splits it into per-partition
vectors.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional, Tuple

import numpy as np

from ..exceptions import TrainingError
from .datasets import (
    BatchStream,
    Dataset,
    Partitions,
    check_step,
    draw_indices,
    stream_key,
    weyl_terms,
)
from .models import Model


class BatchStreams(Sequence):
    """All partitions' seeded batch streams, stacked.

    As a sequence it yields one :class:`BatchStream` per partition;
    :meth:`gradients` is the stacked round.  Fixed at construction and
    stateless afterwards, so one object serves every engine of an
    :class:`~repro.engine.plan.EnginePlan`.
    """

    def __init__(
        self, partitions: Sequence[Dataset], batch_size: int, seed: int = 0
    ):
        block = Partitions.stack(partitions)
        self._streams = [
            BatchStream(part, pid, batch_size, seed)
            for pid, part in enumerate(block)
        ]
        count, width = block.features.shape[:2]
        # Row r of partition pid is row pid·width + r of the flat views.
        self._features = block.features.reshape(
            (count * width,) + block.features.shape[2:]
        )
        self._labels = block.labels.reshape(
            (count * width,) + block.labels.shape[2:]
        )
        self._key = stream_key(seed)
        sizes = [stream.batch_size for stream in self._streams]
        # What the stream hashes that no step changes, once: the Weyl
        # terms of the (P, 1) partition ids and of the widest row's
        # draws (a partition drawing b rows uses the first b).
        self._partitions = weyl_terms(np.arange(count)[:, None])
        self._draws = weyl_terms(np.arange(max(sizes)))
        # (P, 1) columns built afresh: a view's base would stay writable.
        self._sizes = np.array(
            [[part.num_samples] for part in block], np.uint64
        )
        self._offsets = np.array([[pid * width] for pid in range(count)])
        for shared in (self._sizes, self._offsets):
            shared.flags.writeable = False
        #: per batch size: the partitions (= positions) drawing that
        #: many, as a slice when they are contiguous.
        by_size: dict = {}
        for pid, size in enumerate(sizes):
            by_size.setdefault(size, []).append(pid)
        self._round_plan = [
            (_contiguous(positions), size)
            for size, positions in by_size.items()
        ]

    @classmethod
    def require(cls, streams: "BatchStreams") -> "BatchStreams":
        """``streams``, checked to be a :class:`BatchStreams`: a hand-
        built sequence of :class:`BatchStream` has no block to gather
        from."""
        if not isinstance(streams, cls):
            raise TrainingError(
                "batch streams must be a BatchStreams "
                "(build_batch_streams), got "
                f"{type(streams).__name__}"
            )
        return streams

    def __len__(self) -> int:
        return len(self._streams)

    def __getitem__(self, index):
        return self._streams[index]

    def gradients(
        self,
        model: Model,
        step: int,
        parameters: Optional[np.ndarray] = None,
        partition: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batch losses ``(P,)`` and gradients ``(P, D)`` at ``step``.

        One row per partition in order — or the single row of
        ``partition`` — evaluated at ``parameters``: ``None`` for the
        model's current vector, ``(D,)`` shared, or ``(P, D)`` one row
        each.
        """
        step = check_step(step)
        if partition is None:
            index = draw_indices(
                self._key, step, self._partitions, self._sizes, self._draws
            )
            index += self._offsets
            plan = [
                (positions, index[positions, :size])
                for positions, size in self._round_plan
            ]
            rows = len(self)
        else:
            index = self._streams[partition].indices(step)
            index += self._offsets[partition]
            plan, rows = [(slice(0, 1), index[None])], 1
        per_row = parameters is not None and np.ndim(parameters) == 2
        if per_row and len(parameters) != rows:
            raise TrainingError(
                f"parameters of shape {np.shape(parameters)} are not one "
                f"row per batch ({rows} partitions)"
            )
        results = [
            model.stacked_loss_and_gradient(
                self._features.take(index, axis=0),
                self._labels.take(index, axis=0),
                parameters[positions] if per_row else parameters,
            )
            for positions, index in plan
        ]
        if len(results) == 1:
            return results[0]
        losses = np.empty(rows)
        grads = np.empty((rows, model.num_parameters))
        for (positions, _), (group_losses, group_grads) in zip(
            plan, results
        ):
            losses[positions] = group_losses
            grads[positions] = group_grads
        return losses, grads


def _contiguous(positions: list):
    """Increasing ``positions`` as a slice when they are one contiguous
    run (``partition_dataset``'s larger-first sizes always are), else
    the list itself."""
    first, last = positions[0], positions[-1]
    if last - first + 1 == len(positions):
        return slice(first, last + 1)
    return positions


def build_batch_streams(
    partitions: Sequence[Dataset], batch_size: int, seed: int = 0
) -> BatchStreams:
    """One stream per partition, sharing the master seed."""
    return BatchStreams(partitions, batch_size, seed=seed)

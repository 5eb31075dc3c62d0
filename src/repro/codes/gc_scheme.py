"""End-to-end classic gradient coding (the paper's GC baseline).

Bundles a placement, its coefficient matrix ``B`` and exact decoding
into one object mirroring :class:`repro.core.coding.SummationCode`'s
interface, so the training layer can swap IS-GC and classic GC freely.

Classic GC recovers the *exact* full gradient from any ``n - s``
workers with ``s ≤ c - 1`` — and nothing at all from fewer (the
restriction IS-GC removes).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.batch import validate_mask
from ..core.coding import as_block, combine, partition_index
from ..core.cyclic import CyclicRepetition
from ..core.fractional import FractionalRepetition
from ..core.placement import Placement
from ..exceptions import CodingError
from .gc_matrices import (
    cyclic_b_matrix,
    decode_vector,
    fractional_b_matrix,
    supports_full_recovery,
)


class ClassicGradientCode:
    """Classic GC over an FR or CR placement."""

    def __init__(
        self,
        placement: Placement,
        rng: np.random.Generator | None = None,
    ):
        n = placement.num_workers
        c = placement.partitions_per_worker
        if isinstance(placement, FractionalRepetition):
            b = fractional_b_matrix(n, c)
        elif isinstance(placement, CyclicRepetition):
            b = cyclic_b_matrix(n, c, rng=rng)
        else:
            raise CodingError(
                "classic GC constructions exist for FR and CR placements "
                f"only, got {type(placement).__name__}"
            )
        # The coding support must match the placement: a worker can only
        # weight gradients it actually computes.
        for worker in range(n):
            support = set(np.flatnonzero(b[worker]).tolist())
            stored = set(placement.partitions_of(worker))
            if not support <= stored:
                raise CodingError(
                    f"B-matrix row {worker} uses partitions {support - stored} "
                    "the placement does not store there"
                )
        self._placement = placement
        b.flags.writeable = False  # handed out as copies only
        self._b = b
        # Column j of the encode: the workers whose j-th partition has
        # a non-zero coefficient, that partition, and the coefficients
        # as a column (all read-only, built once per code).
        index = partition_index(placement)
        coefficients = np.take_along_axis(b, index, axis=1)
        columns = []
        for j in range(index.shape[1]):
            # a copy: flatnonzero returns a view of a writable buffer
            rows = np.flatnonzero(coefficients[:, j]).copy()
            column = (rows, index[rows, j], coefficients[rows, j, None])
            for part in column:
                part.flags.writeable = False
            columns.append(column)
        self._columns = tuple(columns)

    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def b_matrix(self) -> np.ndarray:
        """The ``n × n`` coding matrix (a defensive copy)."""
        return self._b.copy()

    @property
    def max_stragglers(self) -> int:
        """``s = c - 1``: the guaranteed straggler tolerance."""
        return self._placement.partitions_per_worker - 1

    @property
    def required_workers(self) -> int:
        """``n - s``: the number of workers the master must wait for."""
        return self._placement.num_workers - self.max_stragglers

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        """Every worker's payload ``Σ_p B[i,p] · g_p`` from the ``(P, D)``
        gradient block.

        One masked multiply-add per column of the partition index, in
        ``partitions_of`` order from a zero start; a zero coefficient
        adds nothing (its rows are left out of the column's mask).
        """
        block = as_block(
            partition_gradients, self._placement.num_partitions,
            "partition gradients",
        )
        payloads = np.zeros((self._placement.num_workers, block.shape[1]))
        for rows, parts, weights in self._columns:
            payloads[rows] += weights * block[parts]
        return payloads

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def _survivors(self, available_workers: Iterable[int]) -> list:
        """``sorted(W')`` checked by
        :func:`~repro.core.batch.validate_mask`."""
        n = self._placement.num_workers
        return sorted(validate_mask(available_workers, n))

    def can_decode(self, available_workers: Iterable[int]) -> bool:
        """Whether the exact full gradient is recoverable from ``W'``;
        a malformed survivor set raises
        :class:`~repro.exceptions.DecodeError`."""
        return supports_full_recovery(
            self._b, self._survivors(available_workers)
        )

    def decode_vector(self, available_workers: Iterable[int]) -> np.ndarray:
        """The read-only weights ``a`` with ``aᵀ · B[survivors] = 𝟙ᵀ``,
        ``survivors = sorted(W')``.

        The vector depends on the survivor set alone, so callers may
        memoise it per set.  Raises :class:`CodingError` when the set
        is malformed (:func:`~repro.core.batch.validate_mask`), too
        small or otherwise undecodable (IS-GC's motivating failure
        mode).
        """
        return self.solve(self._survivors(available_workers))

    def solve(self, survivors: Sequence[int]) -> np.ndarray:
        """:meth:`decode_vector` without the survivor check: for sorted
        survivors that have already passed
        :func:`~repro.core.batch.validate_mask`."""
        vector = decode_vector(self._b, list(survivors))
        vector.flags.writeable = False
        return vector

    def decode(
        self,
        available_workers: Iterable[int],
        worker_payloads: np.ndarray,
    ) -> np.ndarray:
        """Exact full-gradient sum ``Σ_{p=0}^{n-1} g_p`` from survivors.

        Raises :class:`CodingError` when the survivor set is malformed
        (:func:`~repro.core.batch.validate_mask`), too small or
        otherwise undecodable.
        """
        survivors = self._survivors(available_workers)
        block = as_block(
            worker_payloads, self._placement.num_workers, "worker payloads"
        )
        return combine(block, survivors, self.solve(survivors))

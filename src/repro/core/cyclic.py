"""Cyclic repetition (CR) placement — Sec. III, Fig. 2(b) and Sec. V.

CR places partitions round-robin: worker ``i`` stores partitions
``{(i + r) mod n | r = 0..c-1}`` (paper, 1-indexed:
``{D_{((j-1) mod n)+1} | j = i..i+c-1}``).  Unlike FR it does *not*
require ``c | n``, which is the flexibility HR later builds on.

Theorem 1 proves the CR conflict graph is the circulant graph
``C_n^{1..c-1}``: workers ``x`` and ``y`` conflict iff their circular
distance ``d(x, y) = min(|x-y|, n-|x-y|)`` is below ``c``.
"""

from __future__ import annotations

from typing import List, Tuple

from ..graphs.circulant import circular_distance
from .bounds import recovered_partitions_bounds
from .placement import Placement


class CyclicRepetition(Placement):
    """The CR placement ``CR(n, c)`` for any ``1 <= c <= n``."""

    scheme = "cr"
    summary = (
        "cyclic repetition — worker i stores partitions (i..i+c-1) mod n; "
        "always valid, most flexible wait choices"
    )
    paper = "Sec. III; conflict graph Thm. 1 (circulant C_n^{1..c-1}); decoder Alg. 2"

    def __init__(self, num_workers: int, partitions_per_worker: int = 1):
        super().__init__(num_workers, partitions_per_worker)
        n, c = self._n, self._c
        assignments = {
            worker: tuple((worker + r) % n for r in range(c))
            for worker in range(n)
        }
        self._finalize(assignments)

    def distance(self, worker_a: int, worker_b: int) -> int:
        """Circular distance ``d(a, b)`` on the worker circle."""
        return circular_distance(worker_a, worker_b, self._n)

    def conflicts_by_distance(self, worker_a: int, worker_b: int) -> bool:
        """Theorem 1 closed form: conflict iff ``d(a, b) < c``.

        Ground truth remains :meth:`Placement.conflicts` (shared
        partitions); tests assert the two predicates agree for all pairs.
        """
        if worker_a == worker_b:
            return True
        return self.distance(worker_a, worker_b) < self._c

    def _recovery_bounds(self, w: int) -> Tuple[int, int]:
        return recovered_partitions_bounds(self._n, self._c, w)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        n, c = num_workers, partitions_per_worker
        if c is not None and c >= n:
            return [
                f"CR placement requires 1 <= c < n: with c = n = {n} "
                "every pair of workers shares a partition (Theorem 1: "
                "conflict iff circular distance < c), so at most one "
                "payload is ever decodable"
            ]
        return []

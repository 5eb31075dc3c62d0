"""Fractional repetition (FR) placement — Sec. III, Fig. 2(a).

FR requires ``c | n``.  The ``n`` workers split into ``n/c`` groups of
``c`` workers each; every worker in group ``q`` stores the same ``c``
partitions ``{q·c, …, q·c + c - 1}`` (paper, 1-indexed:
``D_{i,j} = D_{⌊(i-1)/c⌋·c + j}``).

Because all workers in a group are interchangeable, the conflict graph
is a disjoint union of ``n/c`` cliques of size ``c`` (Fig. 4(a)), and
decoding reduces to picking one surviving worker per group (Alg. 1).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..exceptions import PlacementError
from .bounds import recovered_partitions_bounds
from .placement import Placement


def fr_problems(n: int, c: Optional[int]) -> List[str]:
    """Why ``FR(n, c)`` cannot exist, as messages (empty when it can);
    ``c = None`` (not statically known) checks nothing."""
    if c is not None and n % c != 0:
        return [
            "FR placement requires c | n (Sec. III: workers form n/c "
            f"groups of c replicas); got n={n}, c={c} (use CR or HR "
            "instead)"
        ]
    return []


class FractionalRepetition(Placement):
    """The FR placement ``FR(n, c)`` with ``c | n``."""

    scheme = "fr"
    summary = (
        "fractional repetition — n/c disjoint groups of c identical "
        "replicas (requires c | n); best recovery, least flexible"
    )
    paper = "Sec. III; decoder Alg. 1; bounds Thms. 10-11; Fig. 4(a)"

    def __init__(self, num_workers: int, partitions_per_worker: int = 1):
        super().__init__(num_workers, partitions_per_worker)
        n, c = self._n, self._c
        problems = fr_problems(n, c)
        if problems:
            raise PlacementError(problems[0])
        assignments = {
            worker: tuple(range((worker // c) * c, (worker // c) * c + c))
            for worker in range(n)
        }
        self._finalize(assignments)

    @property
    def num_groups(self) -> int:
        """``n / c`` worker groups, each holding one disjoint partition block."""
        return self._n // self._c

    def group_of(self, worker: int) -> int:
        """Group index of ``worker`` (0-indexed)."""
        if not 0 <= worker < self._n:
            raise PlacementError(f"worker {worker} out of range [0, {self._n})")
        return worker // self._c

    def workers_in_group(self, group: int) -> Tuple[int, ...]:
        """All workers of ``group``, in ascending index order."""
        if not 0 <= group < self.num_groups:
            raise PlacementError(
                f"group {group} out of range [0, {self.num_groups})"
            )
        return tuple(range(group * self._c, (group + 1) * self._c))

    def decoder(self, *, rng: Any = None, cache: Any = None):
        """Alg. 1's decoder (``cache`` is ignored)."""
        from .fr_decoder import FRDecoder

        return FRDecoder(self, rng=rng, cache=cache)

    def _recovery_bounds(self, w: int) -> Tuple[int, int]:
        return recovered_partitions_bounds(self._n, self._c, w)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        return fr_problems(num_workers, partitions_per_worker)

"""User-defined placements.

Research on placement design goes beyond FR/CR/HR (the paper itself
invites new trade-off points).  :class:`ExplicitPlacement` lets a user
supply any worker → partitions table; the generic machinery — ground-
truth conflict graphs, the exact-MIS decoder, the summation code, the
advisor's evaluation — works unchanged on top of it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from ..exceptions import PlacementError
from .placement import Placement


class ExplicitPlacement(Placement):
    """A placement defined by an explicit assignment table.

    ``assignments`` maps every worker ``0..n-1`` to its partition
    tuple; all workers must store the same number ``c`` of distinct
    partitions and every partition must be stored somewhere (the
    standard :class:`Placement` invariants).

    Decoding dispatches to the exact-MIS decoder, which is correct for
    any placement.
    """

    scheme = "explicit"

    def __init__(self, assignments: Mapping[int, Sequence[int]]):
        if not assignments:
            raise PlacementError("assignments table is empty")
        n = len(assignments)
        counts = {len(set(parts)) for parts in assignments.values()}
        if len(counts) != 1:
            raise PlacementError(
                "all workers must store the same number of partitions, "
                f"got counts {sorted(counts)}"
            )
        (c,) = counts
        super().__init__(n, c)
        table: Dict[int, Tuple[int, ...]] = {
            worker: tuple(parts) for worker, parts in assignments.items()
        }
        self._finalize(table)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ExplicitPlacement":
        """Build from a row-per-worker list, e.g. ``[[0,1],[1,2],…]``."""
        return cls({worker: row for worker, row in enumerate(rows)})

"""User-defined placements.

Research on placement design goes beyond FR/CR/HR (the paper itself
invites new trade-off points).  :class:`ExplicitPlacement` lets a user
supply any worker → partitions table; the generic machinery — ground-
truth conflict graphs, the exact-MIS decoder, the summation code, the
advisor's evaluation — works unchanged on top of it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, PlacementError
from .placement import Placement, spec_int


def _explicit_table(
    rows: Any, assignments: Any, num_workers: Optional[int]
) -> Dict[int, Tuple[int, ...]]:
    """The worker → partitions table ``explicit``'s parameters name:
    ``rows`` (row-per-worker list) or ``assignments`` (worker →
    partitions mapping), ``num_workers`` of them when given.  Raises
    :class:`ConfigurationError`; what a placement table must satisfy
    beyond its shape is :class:`ExplicitPlacement`'s to check.
    """
    if (rows is None) == (assignments is None):
        raise ConfigurationError(
            "explicit placement needs exactly one of rows= "
            "(row-per-worker list) or assignments= (worker -> "
            "partitions mapping)"
        )
    try:
        pairs = enumerate(rows) if rows is not None else assignments.items()
        table = {int(worker): tuple(parts) for worker, parts in pairs}
    except (AttributeError, TypeError, ValueError):
        table = None
    if table is None or any(
        spec_int(p) is None for parts in table.values() for p in parts
    ):
        raise ConfigurationError(
            "explicit placement needs one list of integer partition ids "
            "per worker"
        )
    if num_workers is not None and spec_int(num_workers) != len(table):
        raise ConfigurationError(
            f"explicit table has {len(table)} workers but "
            f"num_workers={num_workers} was given; make them agree"
        )
    return table


class ExplicitPlacement(Placement):
    """A placement defined by an explicit assignment table.

    Give exactly one of ``assignments`` (maps every worker ``0..n-1``
    to its partition tuple) or ``rows`` (one partition list per
    worker); ``num_workers``, when given, must match the table.  All
    workers must store the same number ``c`` of distinct partitions and
    every partition must be stored somewhere (the standard
    :class:`Placement` invariants).

    Decoding dispatches to the exact-MIS decoder, which is correct for
    any placement.
    """

    scheme = "explicit"
    summary = (
        "explicit table — any worker->partitions assignment; decoded "
        "by the exact-MIS decoder, bounds are the generic bracket"
    )
    paper = "Sec. V-A (conflict graphs) + exact-MIS decoding"
    uses_uniform_c = False

    def __init__(
        self,
        assignments: Optional[Mapping[int, Sequence[int]]] = None,
        *,
        rows: Optional[Sequence[Sequence[int]]] = None,
        num_workers: Optional[int] = None,
    ):
        table = _explicit_table(rows, assignments, num_workers)
        if not table:
            raise PlacementError("assignments table is empty")
        counts = {len(set(parts)) for parts in table.values()}
        if len(counts) != 1:
            raise PlacementError(
                "all workers must store the same number of partitions, "
                f"got counts {sorted(counts)}"
            )
        (c,) = counts
        super().__init__(len(table), c)
        self._finalize(table)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ExplicitPlacement":
        """Build from a row-per-worker list, e.g. ``[[0,1],[1,2],…]``."""
        return cls(rows=rows)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        # The table is spelled out entry by entry in the spec, so
        # building it costs what reading the spec did.
        params = params or {}
        try:
            ExplicitPlacement(
                params.get("assignments"),
                rows=params.get("rows"),
                num_workers=num_workers,
            )
        except ConfigurationError as exc:
            return [str(exc)]
        return []

"""The exact maximum-independent-set solver.

Decoding IS-GC is a maximum-independent-set (MIS) problem on the induced
conflict graph ``G[W']`` (Sec. V-A of the paper).  The scheme-specific
linear-time decoders live in :mod:`repro.core`; this module is the
exact reference they are checked against and the decoder of last
resort for arbitrary placements.

One search serves both entry points.  The available workers become bit
positions, each worker's neighbourhood a bitset, and ``α`` of a set of
remaining candidates is memoised for the duration of one call: branch
on the next candidate, taken (drop its neighbours) or skipped.  MIS is
NP-hard in general, but a conflict graph has one vertex per worker.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Callable, FrozenSet, List, Tuple

import numpy as np

from .graph import Graph


def _search(
    graph: Graph, available: Iterable[int]
) -> Tuple[List[int], List[int], Callable[[int], int]]:
    """Bit order, neighbourhood bitsets and the memoised ``α`` of a
    candidate bitset, for the subgraph induced by ``available``."""
    n = graph.adjacency.shape[0]
    # Branch in repr order (worker 10 before worker 2): the canonical
    # list of optima, which fair exact decoding draws an index into, was
    # recorded in this order.
    order = sorted({int(v) for v in available}, key=repr)
    if order and not 0 <= min(order) <= max(order) < n:
        raise ValueError(f"available workers must lie in 0..{n - 1}")
    index = np.array(order, dtype=np.intp)
    packed = np.packbits(
        graph.adjacency[index][:, index], axis=1, bitorder="little"
    )
    raw, width = packed.tobytes(), packed.shape[1]
    neighbours = [
        int.from_bytes(raw[i:i + width], "little")
        for i in range(0, len(raw), width or 1)
    ]
    memo = {0: 0}

    def alpha(candidates: int) -> int:
        found = memo.get(candidates)
        if found is None:
            low = candidates & -candidates
            rest = candidates ^ low
            near = neighbours[low.bit_length() - 1]
            found = 1 + alpha(rest & ~near)
            if near & rest:
                found = max(found, alpha(rest))
            memo[candidates] = found
        return found

    return order, neighbours, alpha


def independence_number(graph: Graph, available: Iterable[int]) -> int:
    """``α(G[available])``: the size of a maximum independent set."""
    order, _, alpha = _search(graph, available)
    return alpha((1 << len(order)) - 1)


def all_maximum_independent_sets(
    graph: Graph, available: Iterable[int]
) -> List[FrozenSet[int]]:
    """Every maximum independent set of ``G[available]``, in canonical
    order: depth first over the workers in ``repr`` order, taking a
    worker before skipping it.

    Fair exact decoding draws uniformly over this list, so its order is
    part of the decoder's seeded behaviour.
    """
    order, neighbours, alpha = _search(graph, available)
    optima: List[FrozenSet[int]] = []
    chosen: List[int] = []

    def extend(candidates: int, need: int) -> None:
        if not need:
            optima.append(frozenset(chosen))
            return
        if alpha(candidates) < need:
            return
        low = candidates & -candidates
        rest = candidates ^ low
        bit = low.bit_length() - 1
        chosen.append(order[bit])
        extend(rest & ~neighbours[bit], need - 1)
        chosen.pop()
        extend(rest, need)

    full = (1 << len(order)) - 1
    extend(full, alpha(full))
    return optima

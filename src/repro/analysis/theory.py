"""Empirical verification of the paper's theory (Sec. VII).

These helpers exhaustively or statistically check the theorems against
constructed instances; the test suite calls them, and
``repro experiment theory`` reports them as tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Tuple

import numpy as np

from ..core.bounds import alpha_lower_bound, alpha_upper_bound
from ..core.conflict import conflict_graph
from ..core.placement import Placement
from ..exceptions import ConfigurationError
from ..graphs.independent_set import independence_number


@dataclass(frozen=True)
class BoundCheck:
    """Result of checking Theorems 10/11 on one available set."""

    available: Tuple[int, ...]
    alpha: int
    lower: int
    upper: int

    @property
    def holds(self) -> bool:
        return self.lower <= self.alpha <= self.upper


def check_bounds_exhaustive(
    placement: Placement, w: int
) -> Iterator[BoundCheck]:
    """Theorems 10/11 for *every* size-``w`` available set (small ``n``)."""
    n = placement.num_workers
    c = placement.partitions_per_worker
    if not 1 <= w <= n:
        raise ConfigurationError(f"need 1 <= w <= n, got w={w}, n={n}")
    graph = conflict_graph(placement)
    lo = alpha_lower_bound(n, c, w)
    hi = alpha_upper_bound(n, c, w)
    for subset in combinations(range(n), w):
        alpha = independence_number(graph.subgraph(subset))
        yield BoundCheck(available=subset, alpha=alpha, lower=lo, upper=hi)


def check_bounds_sampled(
    placement: Placement, w: int, trials: int, seed: int = 0
) -> Iterator[BoundCheck]:
    """Theorems 10/11 on random size-``w`` available sets (large ``n``)."""
    n = placement.num_workers
    c = placement.partitions_per_worker
    if not 1 <= w <= n:
        raise ConfigurationError(f"need 1 <= w <= n, got w={w}, n={n}")
    rng = np.random.default_rng(seed)
    graph = conflict_graph(placement)
    lo = alpha_lower_bound(n, c, w)
    hi = alpha_upper_bound(n, c, w)
    for _ in range(trials):
        subset = tuple(sorted(rng.choice(n, size=w, replace=False).tolist()))
        alpha = independence_number(graph.subgraph(subset))
        yield BoundCheck(available=subset, alpha=alpha, lower=lo, upper=hi)


def worst_case_alpha(placement: Placement, w: int) -> int:
    """``min_{|W'|=w} α(G[W'])`` by exhaustive search (small ``n``).

    Should equal Theorem 10's bound for FR and CR (the bound is tight:
    pack the available workers into as few groups / as tight an arc as
    possible).
    """
    return min(check.alpha for check in check_bounds_exhaustive(placement, w))


def best_case_alpha(placement: Placement, w: int) -> int:
    """``max_{|W'|=w} α(G[W'])`` by exhaustive search (small ``n``)."""
    return max(check.alpha for check in check_bounds_exhaustive(placement, w))

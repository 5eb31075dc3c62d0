"""Closed-form and exact recovery distributions.

Monte-Carlo recovery estimates (:mod:`repro.analysis.recovery`) are
convenient but noisy; this module provides the exact counterparts used
to validate them and to generate smooth theory curves:

* :func:`expected_alpha_fr` — a closed form for FR.  With ``W'``
  uniform over size-``w`` subsets, ``α`` is the number of *non-empty
  groups*, an occupancy statistic:

  ``E[α] = (n/c) · (1 − C(n−c, w) / C(n, w))``

* :func:`alpha_distribution_fr` — the full pmf of ``α`` for FR by
  inclusion–exclusion over groups.

* :func:`alpha_distribution_exact` — the pmf for *any* placement by
  exhaustive enumeration of the ``C(n, w)`` subsets (practical for
  ``n ≲ 20``), using the exact MIS solver.

Every function is cross-validated against the others and against the
Monte-Carlo estimator in ``tests/test_closed_form.py``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Dict

from ..core.conflict import conflict_graph
from ..core.placement import Placement
from ..exceptions import ConfigurationError
from ..graphs.independent_set import independence_number


def _validate(n: int, c: int, w: int) -> None:
    if n <= 0 or not 1 <= c <= n:
        raise ConfigurationError(f"invalid (n, c) = ({n}, {c})")
    if not 1 <= w <= n:
        raise ConfigurationError(f"invalid w = {w} for n = {n}")


def expected_alpha_fr(n: int, c: int, w: int) -> float:
    """``E[α(G[W'])]`` for FR(n, c) under uniform size-``w`` subsets.

    Each of the ``n/c`` groups is empty with probability
    ``C(n−c, w) / C(n, w)`` (all ``w`` picks avoid its ``c`` workers),
    and ``α`` counts non-empty groups, so linearity of expectation gives
    the closed form directly.
    """
    _validate(n, c, w)
    if n % c != 0:
        raise ConfigurationError(f"FR requires c | n, got n={n}, c={c}")
    groups = n // c
    if w > n - c:
        p_empty = 0.0
    else:
        p_empty = comb(n - c, w) / comb(n, w)
    return groups * (1.0 - p_empty)


def alpha_distribution_fr(n: int, c: int, w: int) -> Dict[int, float]:
    """The pmf ``P(α = k)`` for FR(n, c) under uniform size-``w`` subsets.

    ``P(exactly k groups non-empty) = C(G, k) · N(k) / C(n, w)`` where
    ``N(k)`` counts size-``w`` subsets of ``k·c`` workers that touch all
    ``k`` groups — inclusion–exclusion:

    ``N(k) = Σ_j (−1)^j C(k, j) C((k−j)·c, w)``.
    """
    _validate(n, c, w)
    if n % c != 0:
        raise ConfigurationError(f"FR requires c | n, got n={n}, c={c}")
    groups = n // c
    total = comb(n, w)
    pmf: Dict[int, float] = {}
    for k in range(1, groups + 1):
        surjective = 0
        for j in range(k + 1):
            avail = (k - j) * c
            if avail >= w:
                surjective += (-1) ** j * comb(k, j) * comb(avail, w)
        if surjective:
            pmf[k] = comb(groups, k) * surjective / total
    return pmf


def alpha_distribution_exact(
    placement: Placement, w: int
) -> Dict[int, float]:
    """Exact pmf of ``α(G[W'])`` by enumerating all size-``w`` subsets.

    Cost is ``C(n, w)`` MIS computations — fine for the paper-scale
    placements (``n ≤ 16``-ish); raise the Monte-Carlo estimator for
    bigger clusters.
    """
    n = placement.num_workers
    _validate(n, placement.partitions_per_worker, w)
    if comb(n, w) > 200_000:
        raise ConfigurationError(
            f"C({n}, {w}) = {comb(n, w)} subsets is too many to "
            "enumerate; use monte_carlo_recovery instead"
        )
    graph = conflict_graph(placement)
    counts: Dict[int, int] = {}
    total = 0
    for subset in combinations(range(n), w):
        alpha = independence_number(graph, subset)
        counts[alpha] = counts.get(alpha, 0) + 1
        total += 1
    return {k: v / total for k, v in sorted(counts.items())}


def expected_alpha_exact(placement: Placement, w: int) -> float:
    """Exact ``E[α(G[W'])]`` via :func:`alpha_distribution_exact`."""
    pmf = alpha_distribution_exact(placement, w)
    return sum(k * p for k, p in pmf.items())


def expected_recovered_exact(placement: Placement, w: int) -> float:
    """Exact expected number of recovered partitions, ``E[α] · c``."""
    return expected_alpha_exact(placement, w) * placement.partitions_per_worker

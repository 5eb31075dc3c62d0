"""Placement migration: moving a running cluster to a better placement.

The advisor (:mod:`repro.core.advisor`) can say HR(c1+1) would recover
more than the current placement — but switching means *copying dataset
partitions between workers*, which costs real time.  This module plans
that transition:

* :func:`migration_plan` — per-worker copy lists (which partitions each
  worker must fetch, and a source replica for each), plus totals;
* :func:`migration_cost_seconds` — wall-clock estimate under a network
  model, assuming each worker fetches its missing partitions
  sequentially while workers proceed in parallel;
* :func:`worth_migrating` — amortisation: the per-step time saved by
  higher recovery (fewer steps to the same loss) must repay the copy
  cost within a step budget.

This closes the loop the paper leaves open: recovery-vs-flexibility is
not just a design-time choice, it can be adjusted online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..env import model_from
from ..exceptions import ConfigurationError
from ..simulation.network import NetworkModel
from .placement import Placement


@dataclass(frozen=True)
class MigrationPlan:
    """What must move to turn ``source`` into ``target``."""

    copies: Dict[int, List[Tuple[int, int]]]  # worker → [(partition, from)]
    total_partition_copies: int
    max_copies_per_worker: int

    @property
    def is_noop(self) -> bool:
        return self.total_partition_copies == 0


def migration_plan(source: Placement, target: Placement) -> MigrationPlan:
    """Plan the copies needed to realise ``target`` from ``source``.

    For every partition a worker holds under ``target`` but not under
    ``source``, pick a source replica — the worker currently holding
    that partition with the fewest outgoing copies so far (cheap load
    balancing of the senders).  Dropping partitions is free.
    """
    if source.num_workers != target.num_workers:
        raise ConfigurationError(
            "cannot migrate between cluster sizes "
            f"{source.num_workers} and {target.num_workers}"
        )
    n = source.num_workers
    outgoing_load = {w: 0 for w in range(n)}
    copies: Dict[int, List[Tuple[int, int]]] = {w: [] for w in range(n)}
    total = 0
    for worker in range(n):
        have = set(source.partitions_of(worker))
        need = set(target.partitions_of(worker)) - have
        for partition in sorted(need):
            holders = sorted(
                source.workers_of(partition),
                key=lambda h: (outgoing_load[h], h),
            )
            donor = holders[0]
            copies[worker].append((partition, donor))
            outgoing_load[donor] += 1
            total += 1
    return MigrationPlan(
        copies={w: lst for w, lst in copies.items() if lst},
        total_partition_copies=total,
        max_copies_per_worker=max(
            (len(lst) for lst in copies.values()), default=0
        ),
    )


def migration_cost_seconds(
    plan: MigrationPlan,
    partition_bytes: float,
    network: NetworkModel | None = None,
) -> float:
    """Wall-clock estimate: workers fetch in parallel, each fetch is a
    sequential transfer of one partition (latency + size/bandwidth)."""
    if partition_bytes < 0:
        raise ConfigurationError(
            f"partition_bytes must be >= 0, got {partition_bytes}"
        )
    network = model_from("network", network)
    per_copy = network.latency + partition_bytes / network.bandwidth
    return plan.max_copies_per_worker * per_copy


def worth_migrating(
    plan: MigrationPlan,
    partition_bytes: float,
    per_step_saving: float,
    remaining_steps: int,
    network: NetworkModel | None = None,
) -> bool:
    """Amortisation test: does the projected saving repay the copies?

    ``per_step_saving`` is the expected simulated-seconds saved per
    step after migrating (e.g. from recovery-driven step reduction);
    the migration is worth it when
    ``per_step_saving × remaining_steps > migration cost``.
    """
    if per_step_saving < 0 or remaining_steps < 0:
        raise ConfigurationError(
            "per_step_saving and remaining_steps must be non-negative"
        )
    cost = migration_cost_seconds(plan, partition_bytes, network)
    return per_step_saving * remaining_steps > cost

"""Multi-message gradient uploads — utilizing stragglers' partial work.

The paper's related work ([19]-[21], Ozfatura et al.) observes that a
coded scheme wastes whatever a straggler *did* compute: an IS-GC worker
uploads one summed payload only after finishing all ``c`` partitions.
The multi-message alternative uploads each partition's gradient as soon
as it is computed, so a slow worker still contributes its early
partitions.

This module implements the uncoded multi-message variant at round
level:

* :class:`MultiMessageRound` — simulates per-message arrival times:
  worker ``i``'s ``j``-th message (its ``j``-th stored partition) lands
  at ``start + delay_i + base + (j+1)·per_partition + (j+1)·upload``
  (computation and uploads are serialized per worker; a heterogeneous
  compute model charges each worker its own ``base``/``per_partition``);
* collectors turn an arrival stream into a recovered partition set:
  :func:`collect_by_deadline` and :func:`collect_first_k_messages`;
* :func:`recovery_vs_deadline` — the head-to-head with IS-GC: at each
  deadline, how many *distinct* partitions does each approach recover?

Trade-off to expect: multi-message recovers earlier (partial work
counts) but ships up to ``c×`` the bytes; IS-GC sends one payload per
worker but only after the full local computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..core.decoders import decoder_for
from ..core.placement import Placement
from ..exceptions import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..env.environment import Environment
    from ..simulation.cluster import ComputeModel


@dataclass(frozen=True)
class MessageArrival:
    """One per-partition upload landing at the master."""

    worker: int
    partition: int
    time: float


def _round_arrivals(
    placement: Placement,
    compute: "ComputeModel",
    straggles: Sequence[float],
    upload_t: float,
) -> Tuple[List[MessageArrival], List[float]]:
    """One round's per-partition message arrivals, sorted by time, and
    each worker's single coded-payload arrival (after all ``c``
    partitions), given worker ``w``'s straggle ``straggles[w]``.

    Each worker's cost comes from ``compute.worker_view(w)`` when the
    model is per-worker (heterogeneous speeds), else from ``compute``.
    """
    worker_view = getattr(compute, "worker_view", None)
    c = placement.partitions_per_worker
    messages: List[MessageArrival] = []
    coded: List[float] = []
    for worker, straggle in enumerate(straggles):
        cost = compute if worker_view is None else worker_view(worker)
        base = cost.base + straggle
        for j, partition in enumerate(placement.partitions_of(worker)):
            compute_done = base + (j + 1) * cost.per_partition
            # Uploads are serialized behind the computation.
            landed = compute_done + (j + 1) * upload_t
            messages.append(MessageArrival(worker, partition, landed))
        coded.append(base + c * cost.per_partition + upload_t)
    messages.sort(key=lambda m: (m.time, m.worker, m.partition))
    return messages, coded


class MultiMessageRound:
    """Simulates one round of per-partition uploads, with the models of
    ``environment`` (failures and a contended link are refused)."""

    def __init__(
        self,
        placement: Placement,
        environment: "Environment",
        gradient_elements: int = 10_000,
        *,
        rng: np.random.Generator,
    ):
        environment.refuse_failures_and_contention()
        self._placement = placement
        self._compute = environment.compute
        self._network = environment.network
        self._delays = environment.delay
        self._elements = gradient_elements
        self._rng = rng

    @property
    def placement(self) -> Placement:
        return self._placement

    def messages_per_round(self) -> int:
        """Total messages per round: one per (worker, partition)."""
        return self._placement.num_workers * self._placement.partitions_per_worker

    def bytes_multiplier(self) -> int:
        """Upload volume vs IS-GC: one full vector per partition."""
        return self._placement.partitions_per_worker

    def simulate(self, step: int) -> List[MessageArrival]:
        """All message arrivals for one round, sorted by time."""
        straggles = [
            self._delays.sample(worker, step, self._rng)
            for worker in range(self._placement.num_workers)
        ]
        arrivals, _ = _round_arrivals(
            self._placement,
            self._compute,
            straggles,
            self._network.transfer_time(self._elements),
        )
        return arrivals


def collect_by_deadline(
    arrivals: Sequence[MessageArrival], deadline: float
) -> Tuple[FrozenSet[int], float]:
    """Distinct partitions from messages landing by ``deadline``.

    If nothing lands in time the master waits for the first message
    (it can never proceed empty-handed), mirroring
    :class:`~repro.simulation.DeadlinePolicy`.
    """
    if not arrivals:
        raise SimulationError("no arrivals to collect")
    if deadline < 0:
        raise ConfigurationError(f"deadline must be >= 0, got {deadline}")
    within = [m for m in arrivals if m.time <= deadline]
    if not within:
        first = arrivals[0]
        return frozenset({first.partition}), first.time
    recovered = frozenset(m.partition for m in within)
    return recovered, deadline


def collect_first_k_messages(
    arrivals: Sequence[MessageArrival], k: int
) -> Tuple[FrozenSet[int], float]:
    """Distinct partitions among the first ``k`` messages."""
    if not arrivals:
        raise SimulationError("no arrivals to collect")
    if not 1 <= k <= len(arrivals):
        raise ConfigurationError(
            f"need 1 <= k <= {len(arrivals)}, got {k}"
        )
    taken = arrivals[:k]
    return frozenset(m.partition for m in taken), taken[-1].time


@dataclass(frozen=True)
class DeadlineComparison:
    """Recovery at one deadline: multi-message vs coded IS-GC."""

    deadline: float
    multimessage_recovered: float
    isgc_recovered: float


def recovery_vs_deadline(
    placement: Placement,
    deadlines: Sequence[float],
    environment: "Environment",
    trials: int = 300,
    gradient_elements: int = 10_000,
    seed: int = 0,
) -> List[DeadlineComparison]:
    """Mean distinct-partition recovery vs deadline for both approaches.

    IS-GC side: worker ``i``'s single payload lands at
    ``delay_i + base_i + c·per_partition_i + upload``; the master decodes
    the conflict graph over the workers that made the deadline.
    Multi-message side: per-partition arrivals, distinct-union
    collection.  Both replay identical straggler draws from
    ``environment``'s delay model.
    """
    if not deadlines:
        raise ConfigurationError("need at least one deadline")
    environment.refuse_failures_and_contention()
    compute, delay_model = environment.compute, environment.delay

    n = placement.num_workers
    upload_t = environment.network.transfer_time(gradient_elements)
    decoder = decoder_for(placement, rng=np.random.default_rng(seed + 1))
    # Separate RNG streams would desynchronise the straggler draws, so
    # delays are drawn once per trial and shared by both sides.
    rng = np.random.default_rng(seed)

    sums = {d: [0.0, 0.0] for d in deadlines}
    for trial in range(trials):
        straggles = [delay_model.sample(w, trial, rng) for w in range(n)]
        mm_arrivals, isgc_arrival_time = _round_arrivals(
            placement, compute, straggles, upload_t
        )

        for deadline in deadlines:
            recovered_mm, _ = collect_by_deadline(mm_arrivals, deadline)
            sums[deadline][0] += len(recovered_mm)

            available = [
                w for w, t in enumerate(isgc_arrival_time) if t <= deadline
            ]
            if available:
                sums[deadline][1] += decoder.decode(available).num_recovered
    return [
        DeadlineComparison(
            deadline=d,
            multimessage_recovered=sums[d][0] / trials,
            isgc_recovered=sums[d][1] / trials,
        )
        for d in deadlines
    ]

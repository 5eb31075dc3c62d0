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
  (computation and uploads are serialized per worker);
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
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..core.decoders import decoder_for
from ..core.placement import Placement
from ..env import make_compute_model, make_delay_model, make_network_model
from ..exceptions import ConfigurationError, SimulationError
from ..simulation.cluster import ComputeModel
from ..simulation.network import NetworkModel
from ..straggler.models import DelayModel


@dataclass(frozen=True)
class MessageArrival:
    """One per-partition upload landing at the master."""

    worker: int
    partition: int
    time: float


class MultiMessageRound:
    """Simulates one round of per-partition uploads."""

    def __init__(
        self,
        placement: Placement,
        compute: ComputeModel | None = None,
        network: NetworkModel | None = None,
        delay_model: DelayModel | None = None,
        gradient_elements: int = 10_000,
        *,
        rng: np.random.Generator,
    ):
        if not isinstance(placement, Placement):
            from ..core.scheme import as_placement

            placement = as_placement(placement)
        self._placement = placement
        self._compute = compute if compute is not None else make_compute_model()
        self._network = network if network is not None else make_network_model()
        self._delays = delay_model if delay_model is not None else make_delay_model("none")
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
        upload_t = self._network.transfer_time(self._elements)
        arrivals: List[MessageArrival] = []
        for worker in range(self._placement.num_workers):
            straggle = self._delays.sample(worker, step, self._rng)
            base = self._compute.base + straggle
            for j, partition in enumerate(self._placement.partitions_of(worker)):
                compute_done = base + (j + 1) * self._compute.per_partition
                # Uploads are serialized behind the computation.
                landed = compute_done + (j + 1) * upload_t
                arrivals.append(
                    MessageArrival(worker=worker, partition=partition, time=landed)
                )
        arrivals.sort(key=lambda m: (m.time, m.worker, m.partition))
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
    trials: int = 300,
    compute: ComputeModel | None = None,
    network: NetworkModel | None = None,
    delay_model: DelayModel | None = None,
    gradient_elements: int = 10_000,
    seed: int = 0,
) -> List[DeadlineComparison]:
    """Mean distinct-partition recovery vs deadline for both approaches.

    IS-GC side: worker ``i``'s single payload lands at
    ``delay_i + base + c·per_partition + upload``; the master decodes
    the conflict graph over the workers that made the deadline.
    Multi-message side: per-partition arrivals, distinct-union
    collection.  Both replay identical straggler draws.
    """
    if not deadlines:
        raise ConfigurationError("need at least one deadline")
    compute = compute if compute is not None else make_compute_model()
    network = network if network is not None else make_network_model()
    delay_model = delay_model if delay_model is not None else make_delay_model("none")

    c = placement.partitions_per_worker
    n = placement.num_workers
    upload_t = network.transfer_time(gradient_elements)
    decoder = decoder_for(placement, rng=np.random.default_rng(seed + 1))
    round_sim = MultiMessageRound(
        placement, compute=compute, network=network,
        delay_model=delay_model, gradient_elements=gradient_elements,
        rng=np.random.default_rng(seed),
    )
    # Separate RNG streams would desynchronise the straggler draws, so
    # delays are drawn once per trial and shared by both sides.
    rng = np.random.default_rng(seed)

    sums = {d: [0.0, 0.0] for d in deadlines}
    for trial in range(trials):
        straggles = {
            w: delay_model.sample(w, trial, rng) for w in range(n)
        }

        mm_arrivals: List[MessageArrival] = []
        isgc_arrival_time: Dict[int, float] = {}
        for worker in range(n):
            base = compute.base + straggles[worker]
            for j, partition in enumerate(placement.partitions_of(worker)):
                landed = base + (j + 1) * compute.per_partition + (j + 1) * upload_t
                mm_arrivals.append(MessageArrival(worker, partition, landed))
            isgc_arrival_time[worker] = (
                base + c * compute.per_partition + upload_t
            )
        mm_arrivals.sort(key=lambda m: (m.time, m.worker, m.partition))

        for deadline in deadlines:
            recovered_mm, _ = collect_by_deadline(mm_arrivals, deadline)
            sums[deadline][0] += len(recovered_mm)

            available = [
                w for w, t in isgc_arrival_time.items() if t <= deadline
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

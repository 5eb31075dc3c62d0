"""Beyond-the-paper experiments.

Two studies that extend the evaluation section:

* :func:`enduring_straggler_study` — Sec. VIII-C observes that a
  *persistent* straggler pushes IS-GC's recovered fraction above the
  i.i.d. expectation ("99.6 % … thanks to an enduring straggler").
  This experiment makes that effect first-class: recovery under
  uniform-random vs persistent stragglers, per scheme and per ``w``.

* :func:`adaptive_policy_study` — Sec. IV sketches waiting for fewer
  workers early and more later, plus deadlines.  This experiment
  trains IS-GC under fixed-w, deadline, ramp, and the latency-
  estimating policy, and compares time-to-loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..analysis.recovery import monte_carlo_recovery
from ..analysis.reporting import Table
from ..core.batch import enumerate_masks
from ..core.decoders import decoder_for
from ..core.scheme import make_placement
from ..engine import FlatBackend, RoundEngine, SyncUpdate, make_strategy
from ..env import Environment, make_delay_model
from ..simulation.policies import AdaptiveWaitK, DeadlinePolicy, WaitForK, linear_rampup
from ..straggler.estimators import EstimatingWaitPolicy, LatencyEstimator
from ..training.datasets import make_cifar_like, partition_dataset
from ..training.gradients import build_batch_streams
from ..training.models import MLPClassifier
from ..training.optimizers import SGD


# ----------------------------------------------------------------------
# Enduring stragglers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EnduringPoint:
    placement: str
    wait_for: int
    iid_recovery_pct: float
    persistent_best_pct: float
    persistent_worst_pct: float


def enduring_straggler_study(
    n: int = 4,
    c: int = 2,
    wait_values: Sequence[int] = (1, 2, 3),
    trials: int = 3000,
    seed: int = 0,
) -> List[EnduringPoint]:
    """Recovery with uniform-random vs persistent straggler sets.

    Persistent case: the same ``n − w`` workers are *always* the
    stragglers, so the available set is fixed and recovery is
    deterministic per step.  *Which* workers straggle decides the
    outcome, so both extremes are reported:

    * best case (stragglers spread so the survivors conflict least) —
      this is the paper's "99.6 % thanks to an enduring straggler"
      effect, recovery above the i.i.d. mean;
    * worst case (stragglers packed so survivors share groups/arcs) —
      recovery below the i.i.d. mean, the paper's bias warning about
      chronically slow workers.
    """
    points: List[EnduringPoint] = []
    for name, placement in (
        ("fr", make_placement("fr", num_workers=n, partitions_per_worker=c)),
        ("cr", make_placement("cr", num_workers=n, partitions_per_worker=c)),
    ):
        for w in wait_values:
            iid = monte_carlo_recovery(placement, w, trials=trials, seed=seed)
            decoder = decoder_for(placement, rng=np.random.default_rng(seed))
            # Every C(n, w) persistent-straggler pattern in one batch.
            outcomes = decoder.decode_batch(
                enumerate_masks(n, w)
            ).num_recovered
            points.append(
                EnduringPoint(
                    placement=name,
                    wait_for=w,
                    iid_recovery_pct=100 * iid.mean_fraction,
                    persistent_best_pct=100 * int(outcomes.max()) / n,
                    persistent_worst_pct=100 * int(outcomes.min()) / n,
                )
            )
    return points


def enduring_straggler_table(**kwargs) -> Table:
    """Render :func:`enduring_straggler_study` as a table."""
    points = enduring_straggler_study(**kwargs)
    table = Table(
        title="Extra — enduring (persistent) stragglers lift recovery "
        "above the i.i.d. expectation (Sec. VIII-C effect)",
        columns=[
            "placement", "w", "i.i.d. recovery %",
            "persistent best %", "persistent worst %",
        ],
    )
    for p in points:
        table.add_row(
            p.placement, p.wait_for,
            f"{p.iid_recovery_pct:.1f}",
            f"{p.persistent_best_pct:.1f}", f"{p.persistent_worst_pct:.1f}",
        )
    return table


# ----------------------------------------------------------------------
# Adaptive wait policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicyPoint:
    policy: str
    num_steps: int
    total_time: float
    avg_recovery_pct: float
    reached: bool


def adaptive_policy_study(
    n: int = 8,
    c: int = 2,
    max_steps: int = 400,
    loss_threshold: float = 1.2,
    seed: int = 0,
) -> List[PolicyPoint]:
    """Train IS-GC/CR under five wait policies on one shared workload."""
    dataset = make_cifar_like(1024, side=8, seed=seed)
    partitions = partition_dataset(dataset, n, seed=seed + 1)
    streams = build_batch_streams(partitions, batch_size=16, seed=seed + 2)
    delay = make_delay_model(
        "persistent",
        stragglers=[0, 1],
        delay={"kind": "shifted-exponential", "shift": 3.0, "mean": 0.5},
        background={"kind": "exponential", "mean": 0.2},
    )

    policies = [
        ("wait-4", WaitForK(4)),
        ("wait-7", WaitForK(7)),
        ("deadline 1.0s", DeadlinePolicy(1.0)),
        ("ramp 3→7", AdaptiveWaitK(linear_rampup(3, 7, max_steps // 2))),
        (
            "latency-estimating",
            EstimatingWaitPolicy(
                LatencyEstimator(smoothing=0.3), min_wait=2,
                slack=2.0, warmup_rounds=3,
            ),
        ),
    ]
    points: List[PolicyPoint] = []
    for name, policy in policies:
        strategy = make_strategy(
            "is-gc-cr", num_workers=n, partitions_per_worker=c,
            wait_for=4, seed=seed, policy=policy,
        )
        cluster = Environment(
            delay=delay,
            compute={"base": 0.05, "per_partition": 0.05},
            network="ideal",
        ).simulator(n, c, rng=np.random.default_rng(seed + 7))
        engine = RoundEngine(
            MLPClassifier(8 * 8 * 3, 32, 10, seed=0), streams, strategy,
            FlatBackend(cluster),
            SyncUpdate(SGD(0.15)), eval_data=dataset,
        )
        summary = engine.run(max_steps, loss_threshold=loss_threshold)
        points.append(
            PolicyPoint(
                policy=name,
                num_steps=summary.num_steps,
                total_time=summary.total_sim_time,
                avg_recovery_pct=100 * summary.avg_recovery_fraction,
                reached=summary.reached_threshold,
            )
        )
    return points


def adaptive_policy_table(**kwargs) -> Table:
    """Render :func:`adaptive_policy_study` as a table."""
    points = adaptive_policy_study(**kwargs)
    table = Table(
        title="Extra — wait-policy comparison for IS-GC "
        "(persistent + background stragglers)",
        columns=["policy", "steps", "total time (s)", "recovery %", "converged"],
    )
    for p in points:
        table.add_row(
            p.policy, p.num_steps, round(p.total_time, 1),
            f"{p.avg_recovery_pct:.1f}", "yes" if p.reached else "no",
        )
    return table

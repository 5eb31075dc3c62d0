#!/usr/bin/env python3
"""Wait-policy playground: how the master's patience shapes training.

Sec. IV of the paper points out that IS-GC frees the master to choose
*any* waiting rule per step: a fixed count, a deadline, or a schedule
that waits for few workers early and more later.  This example runs the
same IS-GC job under four policies and under three different straggler
models, and prints the resulting time/recovery trade-offs.

Run:  python examples/wait_policies.py
"""

import numpy as np

from repro import (
    AdaptiveWaitK,
    ClusterSimulator,
    CyclicRepetition,
    DeadlinePolicy,
    ExponentialDelay,
    ISGCStrategy,
    ParetoDelay,
    PersistentStragglers,
    RoundEngine,
    SGD,
    ShiftedExponentialDelay,
    SoftmaxRegressionModel,
    WaitForK,
    build_batch_streams,
    make_classification,
    partition_dataset,
)
from repro.analysis import Table
from repro.engine import FlatBackend, SyncUpdate
from repro.simulation import linear_rampup

N, C = 8, 2
STEPS = 150


def policies():
    return [
        ("wait-2", WaitForK(2)),
        ("wait-6", WaitForK(6)),
        ("deadline 1.0s", DeadlinePolicy(1.0)),
        ("ramp 2→6", AdaptiveWaitK(linear_rampup(2, 6, STEPS // 2))),
    ]


def delay_models():
    return [
        ("exponential(1.0)", ExponentialDelay(1.0)),
        ("pareto(1.5)", ParetoDelay(1.5, 0.5)),
        (
            "2 persistent stragglers",
            PersistentStragglers([0, 1], ShiftedExponentialDelay(5.0, 1.0)),
        ),
    ]


def main() -> None:
    dataset = make_classification(2048, 16, num_classes=4, separation=1.5, seed=0)
    partitions = partition_dataset(dataset, N, seed=1)
    streams = build_batch_streams(partitions, batch_size=16, seed=2)

    for delay_name, delay in delay_models():
        table = Table(
            title=f"IS-GC (CR, n={N}, c={C}) under {delay_name}, {STEPS} steps",
            columns=[
                "policy", "recovery %", "avg step (s)", "total (s)",
                "final loss",
            ],
        )
        for policy_name, policy in policies():
            placement = CyclicRepetition(N, C)
            strategy = ISGCStrategy(
                placement, wait_for=2, rng=np.random.default_rng(3),
                policy=policy,
            )
            cluster = ClusterSimulator(
                num_workers=N,
                partitions_per_worker=C,
                delay_model=delay,
                rng=np.random.default_rng(11),
            )
            engine = RoundEngine(
                SoftmaxRegressionModel(16, 4, seed=0), streams, strategy,
                FlatBackend(cluster), SyncUpdate(SGD(0.3)), eval_data=dataset,
            )
            s = engine.run(max_steps=STEPS)
            table.add_row(
                policy_name,
                f"{100 * s.avg_recovery_fraction:.1f}",
                round(s.avg_step_time, 3),
                round(s.total_sim_time, 1),
                round(s.final_loss, 4),
            )
        table.show()

    print(
        "Deadline policies bound step time regardless of delay shape;\n"
        "the ramp buys cheap early progress then full recovery near\n"
        "convergence — the schedule suggested in Sec. IV of the paper."
    )


if __name__ == "__main__":
    main()

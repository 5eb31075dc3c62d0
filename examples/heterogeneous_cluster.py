#!/usr/bin/env python3
"""Running IS-GC on a heterogeneous cluster, three levers at once.

A cluster with two chronically slow machines (e.g. older GPUs):

1. **Assignment** — which machine plays which worker index matters.
   With FR, parking both slow machines in the same group sacrifices
   that group's partitions every step; the optimiser spreads them so
   fast group-mates cover for them.
2. **Local updates** — τ local steps per round cut the number of
   straggler waits per epoch by τ.
3. **Compression** — top-k sparsification shrinks the uploads that do
   happen.

Run:  python examples/heterogeneous_cluster.py
"""

import numpy as np

from repro import (
    ClusterSimulator,
    ComputeModel,
    FractionalRepetition,
    NetworkModel,
    PersistentStragglers,
    RoundEngine,
    ShiftedExponentialDelay,
)
from repro.analysis import Table
from repro.core import heterogeneous_recovery, optimize_assignment
from repro.engine import FlatBackend, LocalUpdate
from repro.training import (
    CompressedISGCStrategy,
    ISGCStrategy,
    LogisticRegressionModel,
    build_batch_streams,
    make_classification,
    partition_dataset,
)

N, C, W = 8, 2, 6
SLOW = [0, 1]  # chronically slow machines
DELAY_MEANS = [8.0 if m in SLOW else 0.2 for m in range(N)]


def main() -> None:
    placement = FractionalRepetition(N, C)

    # ------------------------------------------------------------------
    # 1. Assignment: identity vs optimised.
    # ------------------------------------------------------------------
    identity = heterogeneous_recovery(
        placement, W, DELAY_MEANS, trials=3000, seed=0
    )
    result = optimize_assignment(placement, W, DELAY_MEANS, trials=1500, seed=1)
    table = Table(
        title=f"Machine→worker assignment on FR({N},{C}), w={W}, "
        f"machines {SLOW} slow",
        columns=["assignment", "E[recovered partitions]"],
    )
    table.add_row("identity (slow machines share a group)", round(identity, 3))
    table.add_row("optimised (slow machines spread)",
                  round(result.expected_recovered, 3))
    table.show()
    slow_groups = {result.assignment[m] // C for m in SLOW}
    print("optimised assignment puts the slow machines into groups "
          f"{sorted(slow_groups)}\n")

    # ------------------------------------------------------------------
    # 2+3. Local updates and compression on top.
    # ------------------------------------------------------------------
    dataset = make_classification(1024, 10, num_classes=2, separation=2.5, seed=0)
    streams = build_batch_streams(
        partition_dataset(dataset, N, seed=1), batch_size=32, seed=2
    )
    delay = PersistentStragglers(SLOW, ShiftedExponentialDelay(4.0, 1.0))

    runs = Table(
        title="Training under the same stragglers (48 batches/partition)",
        columns=["configuration", "rounds", "total time (s)", "final loss"],
    )
    configs = [
        ("τ=1, dense uploads",
         ISGCStrategy(placement, wait_for=W, rng=np.random.default_rng(3)), 1),
        ("τ=4, dense uploads",
         ISGCStrategy(placement, wait_for=W, rng=np.random.default_rng(3)), 4),
        ("τ=4, top-20% uploads",
         CompressedISGCStrategy(placement, wait_for=W, fraction=0.2,
                                rng=np.random.default_rng(3)), 4),
    ]
    for label, strategy, tau in configs:
        cluster = ClusterSimulator(
            N, C, compute=ComputeModel(0.02, 0.02),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=delay, rng=np.random.default_rng(5),
        )
        engine = RoundEngine(
            LogisticRegressionModel(10, seed=0), streams, strategy,
            FlatBackend(cluster), LocalUpdate(local_steps=tau, local_lr=0.3),
            eval_data=dataset,
        )
        summary = engine.run(max_steps=48 // tau)
        runs.add_row(
            label, summary.num_steps, round(summary.total_sim_time, 1),
            round(summary.final_loss, 4),
        )
    runs.show()
    print(
        "Same data budget: τ=4 pays for the stragglers 4× less often,\n"
        "and compression shrinks whatever uploads remain — all while\n"
        "IS-GC keeps decoding whatever subset of machines shows up."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Online placement adaptation: start wrong, end right.

An extension beyond the paper: the cluster starts on CR(8, 2) (say,
because `c | n` wasn't checked at deploy time), and the adaptive
rule notices at its first review that FR would recover ~1 more
partition per step at w = 4.  It plans the partition copies, charges
the simulated clock for them, switches placements mid-run — model and
optimizer state intact — and finishes with FR-level recovery.

Run:  python examples/adaptive_placement.py
"""

import numpy as np

from repro import (
    ClusterSimulator,
    ComputeModel,
    CyclicRepetition,
    Environment,
    ExponentialDelay,
    ISGCStrategy,
    NetworkModel,
    RoundEngine,
    SGD,
    SoftmaxRegressionModel,
    build_batch_streams,
    make_classification,
    partition_dataset,
)
from repro.engine import AdaptiveMigration, FlatBackend

N, C, W = 8, 2, 4
STEPS = 120


def main() -> None:
    dataset = make_classification(1024, 12, num_classes=3, separation=2.0, seed=0)
    streams = build_batch_streams(
        partition_dataset(dataset, N, seed=1), batch_size=32, seed=2
    )
    cluster = ClusterSimulator(
        N,
        C,
        Environment(
            delay=ExponentialDelay(0.5),
            compute=ComputeModel(0.02, 0.02),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        ),
        rng=np.random.default_rng(3),
    )
    # The decoder and the migration rule draw from one generator.
    rng = np.random.default_rng(4)
    rule = AdaptiveMigration(
        SGD(0.3),
        wait_for=W,
        partition_bytes=1e6,
        network=NetworkModel(latency=0.001, bandwidth=1e9),
        review_every=20,
        rng=rng,
    )
    engine = RoundEngine(
        model=SoftmaxRegressionModel(12, 3, seed=0),
        streams=streams,
        strategy=ISGCStrategy(CyclicRepetition(N, C), wait_for=W, rng=rng),
        backend=FlatBackend(cluster),
        rule=rule,
        eval_data=dataset,
    )
    summary = engine.run(max_steps=STEPS)

    print(summary.describe())
    print()
    if rule.migrations:
        for event in rule.migrations:
            print(
                f"step {event.step}: migrated {event.from_label} → "
                f"{event.to_label} ({event.partition_copies} partition "
                f"copies, {event.cost_seconds * 1000:.1f} ms)"
            )
        switch = rule.migrations[0].step
        before = np.mean(
            [r.recovery_fraction for r in engine.records[:switch]]
        )
        after = np.mean(
            [r.recovery_fraction for r in engine.records[switch:]]
        )
        print(
            f"\nrecovery before migration: {100 * before:.1f}%   "
            f"after: {100 * after:.1f}%"
        )
    else:
        print("no migration was worth it under these parameters")
    print(
        "\nThe advisor + migration planner turn the paper's design-time\n"
        "FR-vs-CR-vs-HR choice into a runtime decision with an explicit\n"
        "amortisation test."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The HR spectrum: sliding between CR and FR (the Fig. 13 scenario).

For HR(8, c1, 4-c1) with g = 2 groups, sweeps c1 from 0 (pure CR) to 3
(FR-equivalent) and shows:

* the conflict graph shedding edges as c1 grows (Theorem 7);
* the recovered-gradient fraction rising with c1 at w = 2;
* the loss after a fixed step budget improving with c1.

Run:  python examples/hybrid_tradeoff.py
"""

import numpy as np

from repro import (
    ClusterSimulator,
    ExponentialDelay,
    HybridRepetition,
    ISGCStrategy,
    MLPClassifier,
    RoundEngine,
    SGD,
    build_batch_streams,
    conflict_graph,
    make_cifar_like,
    monte_carlo_recovery,
    partition_dataset,
)
from repro.analysis import Table
from repro.engine import FlatBackend, SyncUpdate

N, C, G, W = 8, 4, 2, 2
STEPS = 200


def main() -> None:
    dataset = make_cifar_like(2048, side=8, seed=0)
    partitions = partition_dataset(dataset, N, seed=1)
    streams = build_batch_streams(partitions, batch_size=8, seed=2)

    table = Table(
        title=f"HR(8, c1, 4-c1), g={G} — the CR→FR spectrum at w={W}",
        columns=[
            "c1", "c2", "conflict edges", "recovered (of 8)",
            f"loss @ step {STEPS}",
        ],
    )
    for c1 in range(0, C):
        placement = HybridRepetition(N, c1, C - c1, G)
        edges = conflict_graph(placement).number_of_edges()
        stats = monte_carlo_recovery(placement, W, trials=3000, seed=5)

        model = MLPClassifier(8 * 8 * 3, hidden_units=32, num_classes=10, seed=0)
        cluster = ClusterSimulator(
            num_workers=N,
            partitions_per_worker=C,
            delay_model=ExponentialDelay(1.0),
            rng=np.random.default_rng(9),
        )
        strategy = ISGCStrategy(
            placement, wait_for=W, rng=np.random.default_rng(c1)
        )
        engine = RoundEngine(
            model, streams, strategy, FlatBackend(cluster),
            SyncUpdate(SGD(0.2)), eval_data=dataset,
        )
        summary = engine.run(max_steps=STEPS)
        table.add_row(
            c1, C - c1, edges,
            round(stats.mean_recovered, 2),
            round(summary.final_loss, 4),
        )
    table.show()
    print(
        "c1=0 is exactly CR (most conflict edges, least recovery);\n"
        "c1=3 places identically to FR.  Fewer conflict edges → more\n"
        "gradients per step → lower loss at the same step budget."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Scheme shoot-out under stragglers (the Fig. 12 scenario).

Trains the same model on the same data under five schemes —
synchronous SGD, classic gradient coding, IS-SGD, and IS-GC over both
FR and CR placements — against one shared straggler trace, and prints
a side-by-side comparison of recovery, steps, and simulated wall-clock.

This is the paper's motivating experiment in miniature: IS-GC keeps
IS-SGD's speed while recovering (almost) as many gradients as the
synchronous schemes.

Run:  python examples/straggler_tolerance.py
"""

import numpy as np

from repro import (
    ClassicGCStrategy,
    ClusterSimulator,
    CyclicRepetition,
    DelayTrace,
    ExponentialDelay,
    FractionalRepetition,
    ISGCStrategy,
    ISSGDStrategy,
    MLPClassifier,
    RoundEngine,
    SGD,
    SyncSGDStrategy,
    TraceReplayModel,
    build_batch_streams,
    make_cifar_like,
    partition_dataset,
)
from repro.analysis import Table
from repro.engine import FlatBackend, SyncUpdate

N_WORKERS = 4
C = 2
WAIT_FOR = 2
MAX_STEPS = 600
LOSS_THRESHOLD = 0.6


def build_strategies():
    return [
        SyncSGDStrategy(N_WORKERS),
        ClassicGCStrategy(
            CyclicRepetition(N_WORKERS, C), rng=np.random.default_rng(1)
        ),
        ISSGDStrategy(N_WORKERS, WAIT_FOR),
        ISGCStrategy(
            FractionalRepetition(N_WORKERS, C), wait_for=WAIT_FOR,
            rng=np.random.default_rng(2),
        ),
        ISGCStrategy(
            CyclicRepetition(N_WORKERS, C), wait_for=WAIT_FOR,
            rng=np.random.default_rng(3),
        ),
    ]


def main() -> None:
    dataset = make_cifar_like(2048, side=8, seed=0)
    partitions = partition_dataset(dataset, N_WORKERS, seed=1)
    streams = build_batch_streams(partitions, batch_size=16, seed=2)

    # One shared delay realisation so the comparison is exact.
    trace = DelayTrace.record(
        ExponentialDelay(1.5), N_WORKERS, MAX_STEPS,
        np.random.default_rng(42),
    )

    table = Table(
        title=(
            f"Scheme comparison — n={N_WORKERS}, c={C}, w={WAIT_FOR}, "
            f"exp(1.5s) stragglers, train to loss {LOSS_THRESHOLD}"
        ),
        columns=[
            "scheme", "recovery %", "steps", "avg step (s)",
            "total (s)", "converged",
        ],
    )
    for strategy in build_strategies():
        model = MLPClassifier(8 * 8 * 3, hidden_units=32, num_classes=10, seed=0)
        cluster = ClusterSimulator(
            num_workers=N_WORKERS,
            partitions_per_worker=strategy.placement.partitions_per_worker,
            delay_model=TraceReplayModel(trace),
            rng=np.random.default_rng(0),
        )
        engine = RoundEngine(
            model, streams, strategy, FlatBackend(cluster),
            SyncUpdate(SGD(0.15)), eval_data=dataset,
        )
        s = engine.run(max_steps=MAX_STEPS, loss_threshold=LOSS_THRESHOLD)
        table.add_row(
            strategy.name,
            f"{100 * s.avg_recovery_fraction:.1f}",
            s.num_steps,
            round(s.avg_step_time, 3),
            round(s.total_sim_time, 1),
            "yes" if s.reached_threshold else "no",
        )
    table.show()
    print(
        "Note how is-gc matches sync-sgd/gc recovery while its total time\n"
        "stays near is-sgd — the trade-off Fig. 12(d) of the paper shows."
    )


if __name__ == "__main__":
    main()

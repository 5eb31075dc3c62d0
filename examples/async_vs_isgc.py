#!/usr/bin/env python3
"""The design space in one run: sync ↔ IS-GC ↔ async.

Sec. I of the paper motivates IS-GC as a middle ground between two
extremes.  This example pits all three against the same chronic
straggler and renders the loss curves as sparklines:

* **sync-SGD** waits for everyone — every step pays the straggler;
* **async-SGD** never waits — fast updates, but stale gradients
  (staleness statistics are printed);
* **IS-GC** waits for ``w`` workers and recovers the maximal partial
  gradient — near-async speed with near-sync gradient quality.

All three runs are variations of ONE declarative
:class:`~repro.ExperimentSpec`: only ``scheme``/``rule`` (and the
per-variant knobs) change between them, via ``dataclasses.replace``.

Run:  python examples/async_vs_isgc.py
"""

import dataclasses

from repro import ExperimentSpec, run_spec
from repro.analysis import loss_curve_panel

N = 8
UPDATE_BUDGET = 240  # async updates ≈ sync steps × n for fairness

BASE = ExperimentSpec(
    name="async-vs-isgc",
    scheme="sync-sgd",
    num_workers=N,
    max_steps=UPDATE_BUDGET // N,
    learning_rate=0.3,
    seed=0,
    dataset={
        "kind": "classification",
        "samples": 2048,
        "features": 16,
        "num_classes": 4,
        "separation": 1.5,
        "batch_size": 16,
    },
    model={"kind": "softmax"},
    delay={
        "kind": "persistent",
        "stragglers": [0, 1],
        "mean": 4.0,
        "background_mean": 0.5,
    },
    compute={"base": 0.05, "per_partition": 0.05},
    network="ideal",
)


def main() -> None:
    curves = {}
    times = {}

    # --- synchronous SGD --------------------------------------------------
    s = run_spec(BASE)
    curves["sync-sgd "] = s.loss_curve
    times["sync-sgd "] = s.total_sim_time

    # --- IS-GC ------------------------------------------------------------
    s = run_spec(dataclasses.replace(
        BASE, scheme="is-gc-cr", partitions_per_worker=2, wait_for=4,
    ))
    curves["is-gc w=4"] = s.loss_curve
    times["is-gc w=4"] = s.total_sim_time
    isgc_recovery = s.avg_recovery_fraction

    # --- asynchronous SGD -------------------------------------------------
    a = run_spec(dataclasses.replace(
        BASE, rule="async", max_steps=UPDATE_BUDGET,
    ))
    curves["async-sgd"] = a.loss_curve
    times["async-sgd"] = a.total_sim_time

    print("loss curves (equal update budgets):\n")
    print(loss_curve_panel(curves))
    print()
    for name, t in times.items():
        print(f"{name}: {t:7.1f} simulated seconds")
    print(
        f"\nasync staleness: mean {a.mean_staleness:.2f}, "
        f"max {a.max_staleness} (sync/IS-GC gradients are never stale)"
    )
    print(f"is-gc recovered {100 * isgc_recovery:.1f}% of gradients per step")
    print(
        "\nIS-GC finishes near async's wall-clock while keeping the\n"
        "synchronous, never-stale update rule the paper's Theorem 12\n"
        "analysis covers."
    )


if __name__ == "__main__":
    main()

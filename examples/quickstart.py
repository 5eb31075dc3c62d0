#!/usr/bin/env python3
"""Quickstart: IS-GC in five minutes.

Walks the whole public API on the paper's n=4, c=2 example:

1. build a placement and inspect who stores what;
2. encode per-partition gradients into worker payloads;
3. decode from an *arbitrary* subset of workers — the paper's headline
   (classic GC would fail with 2 stragglers; IS-GC recovers everything):
   the scheme turns the survivor set into payload rows and weights, and
   one ``combine`` adds the rows;
4. run a short simulated training job under exponential stragglers,
   described declaratively as an :class:`~repro.ExperimentSpec` — the
   same object ``repro run <spec.json>`` consumes from the CLI.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    CyclicRepetition,
    ExperimentSpec,
    ISGCStrategy,
    run_spec,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # 1. Placement: cyclic repetition with n = 4 workers, c = 2.
    # ------------------------------------------------------------------
    placement = CyclicRepetition(4, 2)
    print(placement.describe())
    print()

    # ------------------------------------------------------------------
    # 2. Encode: each worker uploads the *sum* of its partitions'
    #    gradients — that single design choice is what lets the master
    #    decode from any subset of workers.  Row p of the gradient
    #    block is partition p's gradient; row i of the payload block is
    #    worker i's upload.
    # ------------------------------------------------------------------
    gradients = rng.normal(size=(4, 6))
    strategy = ISGCStrategy(placement, wait_for=2, rng=rng)
    payloads = strategy.encode(gradients)
    print("worker payloads (g_i + g_{i+1}):")
    for worker, payload in enumerate(payloads):
        print(f"  W{worker}: {np.round(payload, 2)}")
    print()

    # ------------------------------------------------------------------
    # 3. Decode with 2 of 4 workers — Fig. 1(d) of the paper.
    #    W0 holds {D0, D1}, W2 holds {D2, D3}: disjoint, so their
    #    payloads add up to the FULL gradient even with 2 stragglers.
    #    `decode` checks the survivor set, asks the scheme for its
    #    weights (`strategy.weights`: the conflict-graph decoder's
    #    selected rows, each with weight 1) and adds the rows with
    #    `repro.core.combine`.
    # ------------------------------------------------------------------
    decoded, _ = strategy.decode([0, 2], payloads)
    decision = strategy.last_decode
    full = gradients.sum(axis=0)
    print(f"available workers : {sorted(decision.available_workers)}")
    print(f"selected workers  : {sorted(decision.selected_workers)}")
    print(f"recovered         : {sorted(decision.recovered_partitions)} "
          f"({decision.num_recovered}/4 partitions)")
    print(f"decoded == full g : {np.allclose(decoded, full)}")
    print()

    # ------------------------------------------------------------------
    # 4. End-to-end simulated training with stragglers — one spec, one
    #    call.  Save the spec as JSON and `python -m repro run spec.json`
    #    reproduces exactly this run.
    # ------------------------------------------------------------------
    spec = ExperimentSpec(
        name="quickstart",
        scheme="is-gc-cr",
        num_workers=4,
        partitions_per_worker=2,
        wait_for=2,
        max_steps=200,
        loss_threshold=0.25,
        learning_rate=0.5,
        seed=1,
        dataset={
            "kind": "classification",
            "samples": 1024,
            "features": 10,
            "num_classes": 2,
            "separation": 1.0,
            "batch_size": 64,
        },
        delay={"kind": "exponential", "mean": 1.5},
    )
    summary = run_spec(spec)
    print(summary.describe())


if __name__ == "__main__":
    main()

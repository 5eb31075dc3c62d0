#!/usr/bin/env python3
"""Round-trace observability end to end: record, export, re-aggregate.

Runs a short IS-GC training job with a :class:`~repro.RoundTracer`
attached, prints the live aggregates, exports the round stream to JSONL,
loads it back, and shows that the re-aggregated per-scheme statistics
reproduce the live numbers exactly — the invariant the observability
layer is built around.

Run:  python examples/traced_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ClusterSimulator,
    CyclicRepetition,
    Environment,
    ExponentialDelay,
    ISGCStrategy,
    RoundEngine,
    RoundTracer,
    SGD,
    SoftmaxRegressionModel,
    aggregate_traces,
    build_batch_streams,
    make_classification,
    partition_dataset,
    read_traces,
)
from repro.analysis.reporting import trace_summary_table
from repro.engine import FlatBackend, SyncUpdate

N, C, W, STEPS = 8, 2, 4, 120


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A traced training run: hand the tracer to the engine, which
    #    attaches it to the simulator and enriches every round with its
    #    decode outcome.  The tracer carries the scheme label.
    # ------------------------------------------------------------------
    data = make_classification(1024, 12, num_classes=3, seed=0)
    streams = build_batch_streams(
        partition_dataset(data, N, seed=1), batch_size=32, seed=2
    )
    placement = CyclicRepetition(N, C)
    strategy = ISGCStrategy(
        placement, wait_for=W, rng=np.random.default_rng(3)
    )
    tracer = RoundTracer(scheme=strategy.name)
    cluster = ClusterSimulator(
        N,
        C,
        Environment(delay=ExponentialDelay(1.0)),
        rng=np.random.default_rng(4),
    )
    engine = RoundEngine(
        model=SoftmaxRegressionModel(12, 3, seed=0),
        streams=streams,
        strategy=strategy,
        backend=FlatBackend(cluster),
        rule=SyncUpdate(SGD(0.3)),
        eval_data=data,
        tracer=tracer,
    )
    summary = engine.run(max_steps=STEPS)
    print(summary.describe())

    # ------------------------------------------------------------------
    # 2. Live aggregates: the traces are the run's one record, and
    #    aggregate_traces reduces them to the headline distributions.
    # ------------------------------------------------------------------
    live = aggregate_traces(tracer.traces)
    run = live[strategy.name]
    print(f"\nlive aggregates over {len(tracer)} rounds:")
    print(f"  step time   mean={run.mean_step_time:.3f}s "
          f"p50={run.p50_step_time:.3f}s p95={run.p95_step_time:.3f}s")
    print(f"  decodes     {run.decoded_rounds}, "
          f"mean searches {run.mean_num_searches:.2f}")

    # ------------------------------------------------------------------
    # 3. Export to JSONL, load back, re-aggregate — exactly the live
    #    numbers, because JSON round-trips binary64 losslessly and the
    #    aggregation uses the same arithmetic as the run.
    # ------------------------------------------------------------------
    out = Path(tempfile.mkdtemp()) / "traced_run.jsonl"
    tracer.export_jsonl(out)
    loaded = read_traces(out)
    aggs = aggregate_traces(loaded)
    trace_summary_table(aggs, title=f"Re-aggregated from {out.name}").show()

    assert live == aggs, "exported trace must reproduce live aggregates"
    scheme = next(iter(aggs))
    print("round-trip exact: mean step time "
          f"{aggs[scheme].mean_step_time!r} (live == loaded)")


if __name__ == "__main__":
    main()

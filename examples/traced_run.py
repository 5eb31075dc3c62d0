#!/usr/bin/env python3
"""Round-trace observability end to end: record, export, re-aggregate.

Runs a short IS-GC training job with a :class:`~repro.RoundTracer`
attached, prints the live metrics, exports the round stream to JSONL,
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
from repro.parallel import DecodeCache

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
    cache = DecodeCache()  # memoised decodes, bit-identical to uncached
    strategy = ISGCStrategy(
        placement, wait_for=W, rng=np.random.default_rng(3), cache=cache
    )
    tracer = RoundTracer(scheme=strategy.name)
    cluster = ClusterSimulator(
        N, C, delay_model=ExponentialDelay(1.0), rng=np.random.default_rng(4)
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
    # 2. Live metrics: the tracer's registry accumulates distributions
    #    as the run goes (no post-processing needed).
    # ------------------------------------------------------------------
    reg = tracer.registry
    step_t = reg.histogram("round.step_time")
    print(f"\nlive metrics over {len(tracer)} rounds:")
    print(f"  step time   mean={step_t.mean:.3f}s "
          f"p50={step_t.p50:.3f}s p95={step_t.p95:.3f}s")
    print(f"  decodes     {reg.counter('decode.count').value:.0f}, "
          "mean searches "
          f"{reg.histogram('decode.num_searches').mean:.2f}")

    # ------------------------------------------------------------------
    # 3. Export to JSONL, load back, re-aggregate — exactly the live
    #    numbers, because JSON round-trips binary64 losslessly and the
    #    aggregation uses the same arithmetic as the run.
    # ------------------------------------------------------------------
    out = Path(tempfile.mkdtemp()) / "traced_run.jsonl"
    tracer.export_jsonl(out)
    loaded = read_traces(out)
    aggs = aggregate_traces(loaded)
    trace_summary_table(
        aggs, title=f"Re-aggregated from {out.name}", cache=cache
    ).show()

    live = aggregate_traces(tracer.traces)
    assert live == aggs, "exported trace must reproduce live aggregates"
    scheme = next(iter(aggs))
    print("round-trip exact: mean step time "
          f"{aggs[scheme].mean_step_time!r} (live == loaded)")


if __name__ == "__main__":
    main()

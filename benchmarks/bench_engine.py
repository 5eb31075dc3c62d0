"""Engine overhead: the round engine must cost ≲ a hand-rolled loop.

``RoundEngine`` + ``FlatBackend`` + ``SyncUpdate`` replaced the
hand-rolled sync loop.  The dispatch indirection (rule/backend virtual calls, ``RoundExecution``
construction) must stay in the noise next to the real per-step work
(gradient evaluation + event simulation).

``_inline_run`` below is a faithful transcription of the pre-engine
loop body — per-partition batch gradients, encode, ``run_round``,
decode, unbiased mean update, held-out eval — on Fig. 11's cluster
shape (n = 24, c = 2, IS-GC/CR with w = 6, exponential delays).  The
benchmark asserts:

* the engine's best-of-N wall clock is within **5 %**
  of the inline loop's (the refactor's overhead budget);
* the two produce bit-identical loss trajectories (so the comparison
  measures the same computation).
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    ClusterSimulator,
    ComputeModel,
    CyclicRepetition,
    DelayTrace,
    ExponentialDelay,
    ISGCStrategy,
    LogisticRegressionModel,
    RoundEngine,
    SGD,
    TraceReplayModel,
    build_batch_streams,
    make_classification,
    partition_dataset,
)
from repro.engine import FlatBackend, SyncUpdate
from repro.training.evaluation import held_out_loss

N = 24          # Fig. 11 cluster size
C = 2           # partitions per worker
W = 6           # IS-GC wait-for
STEPS = 150     # long enough that timer noise amortises out
REPEATS = 7     # best-of-N to shed scheduler noise


def _workload():
    dataset = make_classification(1536, 8, num_classes=2, seed=1)
    partitions = partition_dataset(dataset, N, seed=2)
    streams = build_batch_streams(partitions, batch_size=32, seed=3)
    trace = DelayTrace.record(
        ExponentialDelay(1.5, affected=range(12)),
        N, STEPS, np.random.default_rng(4),
    )
    return dataset, streams, trace


def _fresh_parts(dataset, trace):
    """Everything with run-consumed state, rebuilt per repetition."""
    model = LogisticRegressionModel(8, seed=0)
    strategy = ISGCStrategy(
        CyclicRepetition(N, C), wait_for=W, rng=np.random.default_rng(7)
    )
    cluster = ClusterSimulator(
        num_workers=N,
        partitions_per_worker=C,
        compute=ComputeModel(0.1, 1.6),   # Fig11Config compute costs
        delay_model=TraceReplayModel(trace),
        rng=np.random.default_rng(0),
    )
    return model, strategy, cluster, SGD(0.3)


def _inline_run(model, streams, strategy, cluster, optimizer, eval_data):
    """The pre-engine sync loop body, transcribed from
    the last pre-refactor revision (including its StepRecord, gradient
    norm and loss-tracker bookkeeping, so the comparison is fair)."""
    from repro.training.convergence import LossTracker
    from repro.types import StepRecord

    tracker = LossTracker(None, 5)
    n = strategy.placement.num_partitions
    records = []
    for step in range(STEPS):
        partition_gradients = {}
        batch_losses = []
        for pid in range(n):
            x, y = streams[pid].batch(step)
            loss, grad = model.loss_and_gradient(x, y)
            partition_gradients[pid] = grad
            batch_losses.append(loss)
        payloads = strategy.encode(partition_gradients)
        result = cluster.run_round(step, strategy.policy)
        grad_sum, recovered = strategy.decode(
            result.outcome.accepted_workers, payloads
        )
        mean_grad = grad_sum / len(recovered)
        model.set_parameters(
            optimizer.update(model.get_parameters(), mean_grad)
        )
        loss = held_out_loss(model, eval_data, fallback_losses=batch_losses)
        tracker.record(loss)
        records.append(StepRecord(
            step=step,
            sim_time=cluster.clock,
            wait_time=result.step_time,
            num_available=len(result.outcome.accepted_workers),
            num_recovered=len(recovered),
            recovery_fraction=len(recovered) / n,
            loss=loss,
            grad_norm=float(np.linalg.norm(mean_grad)),
        ))
    return [r.loss for r in records]


def _engine_run(model, streams, strategy, cluster, optimizer, eval_data):
    engine = RoundEngine(
        model, streams, strategy, FlatBackend(cluster),
        SyncUpdate(optimizer), eval_data=eval_data,
    )
    return list(engine.run(max_steps=STEPS).loss_curve)


def _timed(fn, dataset, streams, trace):
    model, strategy, cluster, optimizer = _fresh_parts(dataset, trace)
    start = time.perf_counter()
    losses = fn(model, streams, strategy, cluster, optimizer, dataset)
    return time.perf_counter() - start, losses


def test_engine_overhead_below_5_percent(benchmark):
    dataset, streams, trace = _workload()

    # Warm both paths (first runs pay lazy imports and cache fills),
    # then time them back-to-back in pairs: ambient slowdowns (CPU
    # contention, frequency drift) inflate both halves of a pair, so
    # the per-pair ratio stays honest and the best pair is the cleanest
    # measurement.
    _timed(_inline_run, dataset, streams, trace)
    _timed(_engine_run, dataset, streams, trace)
    ratios = []
    inline_losses = engine_losses = None
    for _ in range(REPEATS):
        inline_t, inline_losses = _timed(_inline_run, dataset, streams, trace)
        engine_t, engine_losses = _timed(_engine_run, dataset, streams, trace)
        ratios.append(engine_t / inline_t)

    # Same computation: identical trajectories, bit for bit.
    assert engine_losses == inline_losses

    overhead = min(ratios) - 1.0
    assert overhead < 0.05, (
        f"engine adds {100 * overhead:.1f}% over the inline loop "
        f"(best engine/inline ratio over {REPEATS} pairs; all ratios: "
        f"{[round(r, 3) for r in ratios]})"
    )

    # Register the engine path with pytest-benchmark for the timing table.
    def one_engine_run():
        model, strategy, cluster, optimizer = _fresh_parts(dataset, trace)
        return _engine_run(
            model, streams, strategy, cluster, optimizer, dataset
        )

    benchmark(one_engine_run)

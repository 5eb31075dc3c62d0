"""Record golden trajectories for the round engine.

Run as ``PYTHONPATH=src python tests/golden/record_goldens.py`` — it
writes one JSON file per workload into this directory.  The files were
first recorded at the commit *before* the ``repro.engine`` extraction,
so the regression tests in ``tests/test_golden_trajectories.py``
proved the engine reproduces the original five training loops
bit-for-bit (JSON floats round-trip exactly through ``repr``).  They
were re-recorded once, by this script, when the batch-index stream
became a counter hash and FR's groups began drawing in ascending
order (``fig11_cell.json``, which reads no training loss, did not
move).  ``fig12_small.json`` was re-recorded once more when its cells
gained a reachable loss threshold (1.5): every cell now stops between
16 and 22 of its 40 steps, so its step counts pin the training loss.

Keep the workloads here small but non-trivial: real stragglers (trace
replay of exponential delays), real decoding (FR/CR conflict graphs),
and every loop family (sync, GC, IS-SGD, IS-GC, async, adaptive,
local-update, the actor round) plus one cell of each figure runner.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core import CyclicRepetition, FractionalRepetition
from repro.engine import (
    AdaptiveMigration,
    AsyncArrivalBackend,
    AsyncUpdate,
    FlatBackend,
    LocalUpdate,
    RoundEngine,
    SyncUpdate,
)
from repro.experiments import (
    Fig11Config,
    Fig12Config,
    Fig13Config,
    run_condition,
    run_fig12,
    run_fig13,
)
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
from repro.straggler import DelayTrace, ExponentialDelay, TraceReplayModel
from repro.training import (
    ClassicGCStrategy,
    ISGCStrategy,
    ISSGDStrategy,
    LogisticRegressionModel,
    SGD,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

N = 4
STEPS = 25


def _workload(n=N):
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    streams = build_batch_streams(partition_dataset(ds, n, seed=2), 32, seed=3)
    return ds, streams


def _trace(n=N, steps=100, seed=4, mean=0.5):
    return DelayTrace.record(
        ExponentialDelay(mean), n, steps, np.random.default_rng(seed)
    )


def make_strategy(kind, seed=7):
    if kind == "sync":
        return SyncSGDStrategy(N)
    if kind == "issgd":
        return ISSGDStrategy(N, 2)
    if kind == "gc":
        return ClassicGCStrategy(
            CyclicRepetition(N, 2), rng=np.random.default_rng(seed)
        )
    if kind == "isgc-fr":
        return ISGCStrategy(
            FractionalRepetition(N, 2), wait_for=2,
            rng=np.random.default_rng(seed),
        )
    if kind == "isgc-cr":
        return ISGCStrategy(
            CyclicRepetition(N, 2), wait_for=2,
            rng=np.random.default_rng(seed),
        )
    raise ValueError(kind)


def make_cluster(strategy, trace):
    return ClusterSimulator(
        num_workers=N,
        partitions_per_worker=strategy.placement.partitions_per_worker,
        compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=TraceReplayModel(trace),
        rng=np.random.default_rng(0),
    )


def record_to_dict(r):
    return {
        "step": r.step,
        "sim_time": r.sim_time,
        "wait_time": r.wait_time,
        "num_available": r.num_available,
        "num_recovered": r.num_recovered,
        "recovery_fraction": r.recovery_fraction,
        "loss": r.loss,
        "grad_norm": r.grad_norm,
    }


def summary_to_dict(s):
    return {
        "scheme": s.scheme,
        "num_steps": s.num_steps,
        "total_sim_time": s.total_sim_time,
        "final_loss": s.final_loss,
        "reached_threshold": s.reached_threshold,
        "avg_step_time": s.avg_step_time,
        "avg_recovery_fraction": s.avg_recovery_fraction,
        "loss_curve": list(s.loss_curve),
        "time_curve": list(s.time_curve),
    }


def golden_flat_trainers():
    out = {}
    for kind in ("sync", "issgd", "gc", "isgc-fr", "isgc-cr"):
        ds, streams = _workload()
        trace = _trace()
        strategy = make_strategy(kind)
        engine = RoundEngine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            FlatBackend(make_cluster(strategy, trace)),
            SyncUpdate(SGD(0.3)), eval_data=ds,
        )
        summary = engine.run(max_steps=STEPS)
        out[kind] = {
            "summary": summary_to_dict(summary),
            "records": [record_to_dict(r) for r in engine.records],
            "final_parameters": list(engine.model.get_parameters()),
        }
    return out


def golden_flat_no_eval():
    """Batch-loss fallback path (no eval_data) for the sync family."""
    out = {}
    for kind in ("issgd", "isgc-cr"):
        _, streams = _workload()
        trace = _trace()
        strategy = make_strategy(kind)
        engine = RoundEngine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            FlatBackend(make_cluster(strategy, trace)), SyncUpdate(SGD(0.3)),
        )
        summary = engine.run(max_steps=10)
        out[kind] = {"loss_curve": list(summary.loss_curve)}
    return out


def golden_runtime():
    """The actor round.  First recorded through master/worker actors;
    ``backend: actor`` is now a :class:`FlatBackend`, and the flat
    round reproduces the recording bit for bit."""
    out = {}
    for kind in ("sync", "issgd", "gc", "isgc-fr", "isgc-cr"):
        ds, streams = _workload()
        trace = _trace()
        strategy = make_strategy(kind)
        engine = RoundEngine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            FlatBackend(make_cluster(strategy, trace)), SyncUpdate(SGD(0.3)),
            eval_data=ds,
        )
        summary = engine.run(max_steps=STEPS)
        out[kind] = {
            "summary": summary_to_dict(summary),
            "records": [record_to_dict(r) for r in engine.records],
        }
    return out


def golden_async():
    ds, streams = _workload()
    backend = AsyncArrivalBackend(
        compute=ComputeModel(0.05, 0.05),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=ExponentialDelay(0.3, affected=[0, 1]),
        rng=np.random.default_rng(11),
    )
    # No coding on the async path: one partition per worker, as
    # ``build_engine`` wires ``rule: async`` over ``sync-sgd``.
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams, make_strategy("sync"),
        backend, AsyncUpdate(SGD(0.05)), eval_data=ds,
    )
    summary = engine.run_updates(max_updates=60)
    return {
        "records": [
            {
                "update_index": r.update_index,
                "sim_time": r.sim_time,
                "worker": r.worker,
                "staleness": r.staleness,
                "loss": r.loss,
            }
            for r in engine.async_records
        ],
        "summary": {
            "num_updates": summary.num_updates,
            "total_sim_time": summary.total_sim_time,
            "final_loss": summary.final_loss,
            "mean_staleness": summary.mean_staleness,
            "max_staleness": summary.max_staleness,
            "loss_curve": list(summary.loss_curve),
        },
        "final_parameters": list(engine.model.get_parameters()),
    }


def golden_adaptive():
    n = 8
    ds, streams = _workload(n)
    placement = CyclicRepetition(n, 2)
    cluster = ClusterSimulator(
        n, placement.partitions_per_worker,
        compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=ExponentialDelay(0.5),
        rng=np.random.default_rng(0),
    )
    # The strategy and the migration rule share one generator, so a
    # migrated run consumes the stream the pre-engine loop did.
    rng = np.random.default_rng(7)
    rule = AdaptiveMigration(
        SGD(0.3),
        wait_for=4,
        partition_bytes=1e4,
        network=NetworkModel(latency=0.001, bandwidth=1e9),
        review_every=10,
        rng=rng,
    )
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams,
        ISGCStrategy(placement, wait_for=4, rng=rng),
        FlatBackend(cluster), rule, eval_data=ds,
    )
    summary = engine.run(max_steps=30)
    return {
        "summary": summary_to_dict(summary),
        "records": [record_to_dict(r) for r in engine.records],
        "migrations": [
            {
                "step": m.step,
                "from_label": m.from_label,
                "to_label": m.to_label,
                "partition_copies": m.partition_copies,
                "cost_seconds": m.cost_seconds,
                "sim_time": m.sim_time,
            }
            for m in rule.migrations
        ],
        "placement_scheme": engine.strategy.placement.scheme,
        "final_parameters": list(engine.model.get_parameters()),
    }


def golden_local():
    ds, streams = _workload()
    strategy = ISGCStrategy(
        CyclicRepetition(4, 2), wait_for=2, rng=np.random.default_rng(5)
    )
    cluster = ClusterSimulator(
        4, 2, compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=TraceReplayModel(_trace()),
        rng=np.random.default_rng(0),
    )
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams, strategy,
        FlatBackend(cluster), LocalUpdate(local_steps=3, local_lr=0.1),
        eval_data=ds,
    )
    summary = engine.run(max_steps=20)
    return {
        "summary": summary_to_dict(summary),
        "records": [record_to_dict(r) for r in engine.records],
        "final_parameters": list(engine.model.get_parameters()),
    }


def golden_fig11_cell():
    points = run_condition(Fig11Config(), 1.5, 12)
    return [
        {
            "scheme": p.scheme,
            "wait_for": p.wait_for,
            "partitions_per_worker": p.partitions_per_worker,
            "avg_step_time": p.avg_step_time,
        }
        for p in points
    ]


def golden_fig12_small():
    cfg = Fig12Config(
        num_trials=1, max_steps=40, loss_threshold=1.5,
        recovery_trials=400, dataset_samples=512,
    )
    results = run_fig12(cfg)
    return {
        str(w): [
            {
                "scheme": p.scheme,
                "wait_for": p.wait_for,
                "recovery_pct": p.recovery_pct,
                "num_steps": p.num_steps,
                "avg_step_time": p.avg_step_time,
                "total_time": p.total_time,
                "reached_threshold": p.reached_threshold,
            }
            for p in points
        ]
        for w, points in results.items()
    }


def golden_fig13_small():
    cfg = Fig13Config(num_steps=30, recovery_trials=400, dataset_samples=512)
    points = run_fig13(cfg)
    return [
        {
            "c1": p.c1,
            "c2": p.c2,
            "mean_recovered": p.mean_recovered,
            "mean_fraction": p.mean_fraction,
            "loss_curve": list(p.loss_curve),
        }
        for p in points
    ]


GOLDENS = {
    "trainer_flat.json": golden_flat_trainers,
    "trainer_flat_no_eval.json": golden_flat_no_eval,
    "runtime_actor.json": golden_runtime,
    "async_sgd.json": golden_async,
    "adaptive.json": golden_adaptive,
    "local_sgd.json": golden_local,
    "fig11_cell.json": golden_fig11_cell,
    "fig12_small.json": golden_fig12_small,
    "fig13_small.json": golden_fig13_small,
}


def serialise(data) -> str:
    """The file text of one golden."""
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main():
    for name, fn in GOLDENS.items():
        path = GOLDEN_DIR / name
        path.write_text(serialise(fn()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

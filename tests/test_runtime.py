"""Tests for the actor runtime — including trajectory equivalence with
the flat backend, the property that makes the runtime trustworthy."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.core import CyclicRepetition, FractionalRepetition
from repro.engine import ActorBackend, RoundEngine, SyncUpdate
from repro.exceptions import TrainingError
from repro.runtime import (
    GradientUpload,
    MasterActor,
    ParameterBroadcast,
    WorkerActor,
)
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel, WaitForK
from repro.straggler import DelayTrace, ExponentialDelay, TraceReplayModel
from repro.training import (
    ISGCStrategy,
    ISSGDStrategy,
    LogisticRegressionModel,
    SGD,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


N = 4


@pytest.fixture
def workload():
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    parts = partition_dataset(ds, N, seed=2)
    streams = build_batch_streams(parts, batch_size=32, seed=3)
    return ds, streams


def _strategy(kind, seed=0):
    if kind == "sync":
        return SyncSGDStrategy(N)
    if kind == "issgd":
        return ISSGDStrategy(N, 2)
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


def _runtime(strategy, streams, ds, trace, keep_message_log=False):
    """An engine over the actor backend (the master is ``backend.master``)."""
    model = LogisticRegressionModel(8, seed=0)
    backend = ActorBackend(
        MasterActor(strategy, model),
        [WorkerActor(i, strategy, model, streams) for i in range(N)],
        compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=TraceReplayModel(trace),
        rng=np.random.default_rng(0),
        keep_message_log=keep_message_log,
    )
    return RoundEngine(
        model, streams, strategy, backend, SyncUpdate(SGD(0.3)), eval_data=ds
    )


@pytest.fixture
def trace():
    return DelayTrace.record(
        ExponentialDelay(0.5), N, 100, np.random.default_rng(4)
    )


class TestActors:
    def test_worker_partitions_match_placement(self, workload):
        ds, streams = workload
        strategy = _strategy("isgc-cr")
        worker = WorkerActor(1, strategy, LogisticRegressionModel(8), streams)
        assert worker.partitions == strategy.placement.partitions_of(1)

    def test_worker_payload_is_strategy_encoding(self, workload):
        ds, streams = workload
        strategy = _strategy("isgc-cr")
        model = LogisticRegressionModel(8, seed=0)
        worker = WorkerActor(0, strategy, model, streams)
        broadcast = ParameterBroadcast(
            sender="master", send_time=0.0, step=0,
            parameters=model.get_parameters(),
        )
        upload = worker.handle_broadcast(broadcast, 0.0)
        assert upload.worker == 0
        assert upload.payload.shape == (model.num_parameters,)

    def test_worker_rejects_empty_broadcast(self, workload):
        _, streams = workload
        strategy = _strategy("isgc-cr")
        worker = WorkerActor(0, strategy, LogisticRegressionModel(8), streams)
        msg = ParameterBroadcast(sender="master", send_time=0.0, step=0)
        with pytest.raises(TrainingError):
            worker.handle_broadcast(msg, 0.0)

    def test_master_rejects_stale_upload(self, workload):
        ds, _ = workload
        strategy = _strategy("issgd")
        master = MasterActor(strategy, LogisticRegressionModel(8))
        master.broadcast(0.0)
        stale = GradientUpload(
            sender="worker-0", send_time=0.0, step=7, worker=0,
            payload=np.zeros(9),
        )
        with pytest.raises(TrainingError, match="step"):
            master.receive(stale)

    def test_master_records_steps(self, workload, trace):
        ds, streams = workload
        runtime = _runtime(_strategy("issgd"), streams, ds, trace)
        runtime.run(max_steps=5)
        master = runtime.backend.master
        assert len(master.records) == 5
        assert master.step == 5


class TestRuntimeRuns:
    @pytest.mark.parametrize("kind", ["sync", "issgd", "isgc-fr", "isgc-cr"])
    def test_loss_decreases(self, workload, trace, kind):
        ds, streams = workload
        runtime = _runtime(_strategy(kind), streams, ds, trace)
        summary = runtime.run(max_steps=40)
        assert summary.loss_curve[-1] < summary.loss_curve[0]

    def test_clock_advances_monotonically(self, workload, trace):
        ds, streams = workload
        runtime = _runtime(_strategy("issgd"), streams, ds, trace)
        times = []
        for step in range(5):
            runtime.run_step(step)
            times.append(runtime.clock)
        assert times == sorted(times)
        assert times[0] > 0

    def test_message_log(self, workload, trace):
        ds, streams = workload
        runtime = _runtime(
            _strategy("issgd"), streams, ds, trace, keep_message_log=True
        )
        runtime.run(max_steps=3)
        log = runtime.backend.message_log
        broadcasts = [m for m in log if isinstance(m, ParameterBroadcast)]
        uploads = [m for m in log if isinstance(m, GradientUpload)]
        assert len(broadcasts) == 3
        assert len(uploads) == 3 * 2  # w = 2 accepted per step

    def test_stream_count_mismatch(self, workload, trace):
        ds, streams = workload
        with pytest.raises(TrainingError, match="partitions"):
            _runtime(SyncSGDStrategy(N + 1), streams, ds, trace)

    def test_invalid_max_steps(self, workload, trace):
        ds, streams = workload
        runtime = _runtime(_strategy("issgd"), streams, ds, trace)
        with pytest.raises(TrainingError):
            runtime.run(max_steps=0)


class TestEquivalenceWithFlatTrainer:
    """The actor path and the flat backend must produce identical
    trajectories on the same trace — the runtime's core guarantee."""

    @pytest.mark.parametrize("kind", ["sync", "issgd", "isgc-fr", "isgc-cr"])
    def test_loss_curves_match(self, workload, trace, kind):
        ds, streams = workload

        runtime = _runtime(_strategy(kind, seed=7), streams, ds, trace)
        runtime_summary = runtime.run(max_steps=25)

        strategy = _strategy(kind, seed=7)
        cluster = ClusterSimulator(
            num_workers=N,
            partitions_per_worker=strategy.placement.partitions_per_worker,
            compute=ComputeModel(0.02, 0.02),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=TraceReplayModel(trace),
            rng=np.random.default_rng(0),
        )
        flat = sync_engine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            cluster, SGD(0.3), eval_data=ds,
        )
        flat_summary = flat.run(max_steps=25)

        np.testing.assert_allclose(
            np.array(runtime_summary.loss_curve),
            np.array(flat_summary.loss_curve),
            atol=1e-10,
        )

    def test_recovery_fractions_match(self, workload, trace):
        ds, streams = workload
        runtime = _runtime(_strategy("isgc-cr", seed=3), streams, ds, trace)
        runtime.run(max_steps=20)

        strategy = _strategy("isgc-cr", seed=3)
        cluster = ClusterSimulator(
            num_workers=N, partitions_per_worker=2,
            compute=ComputeModel(0.02, 0.02),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=TraceReplayModel(trace),
            rng=np.random.default_rng(0),
        )
        flat = sync_engine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            cluster, SGD(0.3), eval_data=ds,
        )
        flat.run(max_steps=20)
        for a, b in zip(runtime.backend.master.records, flat.records):
            assert a.num_recovered == b.num_recovered
            assert a.num_available == b.num_available


class TestActorRace:
    """The actor backend races its uploads through the simulator's own
    ``arrival_race``: earliest first, ties by position in the worker
    list."""

    @pytest.mark.parametrize(
        "delays, expected, accepted",
        [
            # Every worker ties: the worker list's order, as given (the
            # wait policy itself breaks its ties by worker id).
            ([0.0, 0.0, 0.0, 0.0], [3, 1, 0, 2], [0, 1]),
            # Two pairs of ties: 3 and 1 at zero delay, then 0 and 2.
            ([0.5, 0.0, 0.5, 0.0], [3, 1, 0, 2], [1, 3]),
            ([0.0, 0.5, 0.0, 0.5], [0, 2, 3, 1], [0, 2]),
        ],
    )
    def test_tied_arrivals_follow_worker_list(
        self, workload, delays, expected, accepted
    ):
        ds, streams = workload
        strategy = _strategy("issgd")
        model = LogisticRegressionModel(8, seed=0)
        compute = ComputeModel(0.02, 0.02)
        backend = ActorBackend(
            MasterActor(strategy, model),
            [WorkerActor(i, strategy, model, streams) for i in (3, 1, 0, 2)],
            compute=compute,
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=TraceReplayModel(DelayTrace(np.array([delays]))),
            rng=np.random.default_rng(0),
        )
        engine = RoundEngine(
            model, streams, strategy, backend, SyncUpdate(SGD(0.3)),
            eval_data=ds,
        )
        execution = backend.execute_round(engine, 0, WaitForK(2))
        assert list(execution.arrivals) == expected
        assert execution.accepted == accepted
        compute_t = compute.step_time(strategy.placement.partitions_per_worker)
        for worker, delay in enumerate(delays):
            assert execution.arrivals[worker] == compute_t + delay

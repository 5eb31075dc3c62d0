"""Failure-injection tests: crashes, dropouts, and training through them."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.core import CyclicRepetition
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation import (
    BestEffortWaitForK,
    ClusterSimulator,
    ComputeModel,
    ContendedUploadModel,
    NetworkModel,
    WaitForK,
)
from repro.straggler import (
    CompositeFailures,
    NoDelay,
    NoFailures,
    PermanentCrashes,
    TransientDropouts,
)
from repro.training import (
    ISGCStrategy,
    LogisticRegressionModel,
    SGD,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


class TestFailureModels:
    def test_no_failures(self, rng):
        model = NoFailures()
        assert all(model.is_alive(w, s, rng) for w in range(4) for s in range(4))

    def test_permanent_crash_from_step(self, rng):
        model = PermanentCrashes([1], at_step=3)
        assert model.is_alive(1, 2, rng)
        assert not model.is_alive(1, 3, rng)
        assert not model.is_alive(1, 99, rng)
        assert model.is_alive(0, 99, rng)

    def test_permanent_crash_validation(self):
        with pytest.raises(ConfigurationError):
            PermanentCrashes([0], at_step=-1)

    def test_transient_dropout_rate(self, rng):
        model = TransientDropouts(0.25)
        alive = sum(model.is_alive(0, s, rng) for s in range(10_000))
        assert alive / 10_000 == pytest.approx(0.75, abs=0.02)

    def test_transient_validation(self):
        with pytest.raises(ConfigurationError):
            TransientDropouts(1.0)

    def test_composite(self, rng):
        model = CompositeFailures([
            PermanentCrashes([0]), PermanentCrashes([1]),
        ])
        assert not model.is_alive(0, 0, rng)
        assert not model.is_alive(1, 0, rng)
        assert model.is_alive(2, 0, rng)

    def test_composite_validation(self):
        with pytest.raises(ConfigurationError):
            CompositeFailures([])


class TestSimulatorWithFailures:
    def _sim(self, failures, policy_k=2, **kw):
        return ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=ComputeModel(0.1, 0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=NoDelay(),
            failure_model=failures,
            rng=np.random.default_rng(0),
            **kw,
        )

    def test_crashed_workers_never_arrive(self):
        sim = self._sim(PermanentCrashes([0, 1]))
        result = sim.run_round(0, BestEffortWaitForK(4))
        assert set(result.arrivals) == {2, 3}

    def test_strict_wait_deadlocks_on_crash(self):
        """Sync-SGD semantics cannot survive a crash — the failure mode
        arbitrary ignorance exists to avoid."""
        sim = self._sim(PermanentCrashes([0]))
        with pytest.raises(SimulationError):
            sim.run_round(0, WaitForK(4))

    def test_best_effort_clamps(self):
        sim = self._sim(PermanentCrashes([0, 1, 2]))
        result = sim.run_round(0, BestEffortWaitForK(4))
        assert result.outcome.accepted_workers == frozenset({3})

    def test_all_failed_raises(self):
        sim = self._sim(PermanentCrashes([0, 1, 2, 3]))
        with pytest.raises(SimulationError, match="every worker failed"):
            sim.run_round(0, BestEffortWaitForK(1))

    def test_contended_link_round(self):
        sim = self._sim(
            NoFailures(),
            contended_link=ContendedUploadModel(capacity_bytes_per_s=80_000),
        )
        # 4 × 40 kB flows share 80 kB/s: all finish 2 s after compute.
        result = sim.run_round(0, BestEffortWaitForK(4))
        assert result.step_time == pytest.approx(0.3 + 2.0)

    def test_contention_vs_ideal_ordering(self):
        contended = self._sim(
            NoFailures(),
            contended_link=ContendedUploadModel(capacity_bytes_per_s=80_000),
        )
        ideal = self._sim(NoFailures())
        t_contended = contended.run_round(0, BestEffortWaitForK(4)).step_time
        t_ideal = ideal.run_round(0, BestEffortWaitForK(4)).step_time
        assert t_contended > t_ideal


class TestTrainingThroughFailures:
    def _trainer(self, failures, wait_for=2):
        n = 4
        ds = make_classification(256, 6, num_classes=2, separation=3.0, seed=0)
        streams = build_batch_streams(partition_dataset(ds, n, seed=1), 16, seed=2)
        strategy = ISGCStrategy(
            CyclicRepetition(n, 2), wait_for=wait_for,
            rng=np.random.default_rng(0),
            policy=BestEffortWaitForK(wait_for),
        )
        cluster = ClusterSimulator(
            n, 2, compute=ComputeModel(0.05, 0.05),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=NoDelay(), failure_model=failures,
            rng=np.random.default_rng(1),
        )
        return sync_engine(
            LogisticRegressionModel(6, seed=0), streams, strategy, cluster,
            SGD(0.3), eval_data=ds,
        )

    def test_isgc_survives_permanent_crash(self):
        trainer = self._trainer(PermanentCrashes([0], at_step=5), wait_for=3)
        summary = trainer.run(max_steps=30)
        assert summary.num_steps == 30
        assert summary.loss_curve[-1] < summary.loss_curve[0]
        # After the crash only 3 workers can ever arrive.
        late = [r for r in trainer.records if r.step >= 5]
        assert all(r.num_available == 3 for r in late)

    def test_isgc_survives_dropouts(self):
        trainer = self._trainer(TransientDropouts(0.3), wait_for=3)
        summary = trainer.run(max_steps=30)
        assert summary.num_steps == 30
        assert all(r.num_recovered >= 2 for r in trainer.records)

    def test_sync_sgd_dies_on_crash(self):
        n = 4
        ds = make_classification(256, 6, num_classes=2, seed=0)
        streams = build_batch_streams(partition_dataset(ds, n, seed=1), 16, seed=2)
        cluster = ClusterSimulator(
            n, 1, delay_model=NoDelay(),
            failure_model=PermanentCrashes([2], at_step=0),
            rng=np.random.default_rng(0),
        )
        trainer = sync_engine(
            LogisticRegressionModel(6, seed=0), streams, SyncSGDStrategy(n),
            cluster, SGD(0.3), eval_data=ds,
        )
        with pytest.raises(SimulationError):
            trainer.run(max_steps=5)

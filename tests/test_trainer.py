"""Tests for the sync training loop and convergence tracking."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.core import CyclicRepetition, FractionalRepetition
from repro.env import Environment
from repro.exceptions import ConfigurationError, TrainingError
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
from repro.straggler import ExponentialDelay, NoDelay
from repro.training import (
    ISGCStrategy,
    ISSGDStrategy,
    LogisticRegressionModel,
    LossTracker,
    SGD,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


def _setup(strategy, n=4, delay=None, seed=0, lr=0.5):
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    parts = partition_dataset(ds, n, seed=2)
    streams = build_batch_streams(parts, batch_size=32, seed=3)
    model = LogisticRegressionModel(8, seed=0)
    cluster = ClusterSimulator(
        num_workers=n,
        partitions_per_worker=strategy.placement.partitions_per_worker,
        environment=Environment(
            delay=delay or NoDelay(),
            compute=ComputeModel(0.01, 0.01),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        ),
        rng=np.random.default_rng(seed),
    )
    trainer = sync_engine(model, streams, strategy, cluster, SGD(lr), eval_data=ds)
    return trainer, ds


class TestLossTracker:
    def test_threshold_reached(self):
        t = LossTracker(threshold=1.0)
        t.record(2.0)
        assert not t.reached_threshold()
        t.record(0.9)
        assert t.reached_threshold()

    def test_no_threshold_never_done(self):
        t = LossTracker()
        t.record(0.0)
        assert not t.reached_threshold()

    def test_smoothing_window(self):
        t = LossTracker(threshold=1.0, smoothing_window=2)
        t.record(0.5)
        assert t.reached_threshold()  # single sample window
        t2 = LossTracker(threshold=1.0, smoothing_window=2)
        t2.record(2.0)
        t2.record(0.5)  # mean(2.0, 0.5) = 1.25 > 1.0
        assert not t2.reached_threshold()

    def test_steps_to_threshold(self):
        t = LossTracker(threshold=1.0)
        for loss in (3.0, 2.0, 0.8, 0.5):
            t.record(loss)
        assert t.steps_to_threshold() == 3

    def test_non_finite_loss_raises(self):
        t = LossTracker()
        with pytest.raises(ConfigurationError, match="diverged"):
            t.record(float("nan"))

    def test_best_loss(self):
        t = LossTracker()
        for loss in (3.0, 1.0, 2.0):
            t.record(loss)
        assert t.best_loss() == 1.0

    def test_empty_queries_raise(self):
        t = LossTracker()
        with pytest.raises(ConfigurationError):
            t.smoothed_loss()
        with pytest.raises(ConfigurationError):
            t.best_loss()

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            LossTracker(smoothing_window=0)


class TestDistributedTrainer:
    def test_loss_decreases(self):
        trainer, _ = _setup(SyncSGDStrategy(4))
        summary = trainer.run(max_steps=60)
        assert summary.loss_curve[-1] < summary.loss_curve[0]

    def test_stops_at_threshold(self):
        trainer, _ = _setup(SyncSGDStrategy(4))
        summary = trainer.run(max_steps=500, loss_threshold=0.3)
        assert summary.reached_threshold
        assert summary.num_steps < 500

    def test_max_steps_respected(self):
        trainer, _ = _setup(SyncSGDStrategy(4))
        summary = trainer.run(max_steps=5)
        assert summary.num_steps == 5
        assert not summary.reached_threshold

    def test_records_populated(self):
        trainer, _ = _setup(ISSGDStrategy(4, 2), delay=ExponentialDelay(0.5))
        trainer.run(max_steps=10)
        records = trainer.records
        assert len(records) == 10
        assert all(r.num_available == 2 for r in records)
        assert all(r.num_recovered == 2 for r in records)
        assert all(r.recovery_fraction == pytest.approx(0.5) for r in records)

    def test_sim_time_monotone(self):
        trainer, _ = _setup(ISSGDStrategy(4, 3), delay=ExponentialDelay(0.5))
        trainer.run(max_steps=10)
        times = [r.sim_time for r in trainer.records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_isgc_recovery_exceeds_issgd(self):
        """With the same w, IS-GC recovers 2× the partitions of IS-SGD."""
        isgc, _ = _setup(
            ISGCStrategy(FractionalRepetition(4, 2), wait_for=2,
                         rng=np.random.default_rng(1)),
            delay=ExponentialDelay(0.5),
        )
        issgd, _ = _setup(ISSGDStrategy(4, 2), delay=ExponentialDelay(0.5))
        s_gc = isgc.run(max_steps=20)
        s_sgd = issgd.run(max_steps=20)
        assert s_gc.avg_recovery_fraction > s_sgd.avg_recovery_fraction

    def test_stream_count_mismatch(self):
        ds = make_classification(100, 8, seed=1)
        parts = partition_dataset(ds, 3, seed=2)
        streams = build_batch_streams(parts, 16, seed=3)
        strategy = SyncSGDStrategy(4)
        cluster = ClusterSimulator(
            4,
            1,
            Environment(),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(TrainingError, match="partitions"):
            sync_engine(
                LogisticRegressionModel(8), streams, strategy, cluster, SGD(0.1)
            )

    def test_cluster_size_mismatch(self):
        ds = make_classification(100, 8, seed=1)
        parts = partition_dataset(ds, 4, seed=2)
        streams = build_batch_streams(parts, 16, seed=3)
        cluster = ClusterSimulator(
            5,
            1,
            Environment(),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(TrainingError, match="workers"):
            sync_engine(
                LogisticRegressionModel(8), streams, SyncSGDStrategy(4),
                cluster, SGD(0.1),
            )

    def test_invalid_max_steps(self):
        trainer, _ = _setup(SyncSGDStrategy(4))
        with pytest.raises(TrainingError):
            trainer.run(max_steps=0)

    def test_batch_loss_fallback_without_eval_data(self):
        ds = make_classification(512, 8, num_classes=2, seed=1)
        parts = partition_dataset(ds, 4, seed=2)
        streams = build_batch_streams(parts, 32, seed=3)
        cluster = ClusterSimulator(
            4,
            1,
            Environment(),
            rng=np.random.default_rng(0),
        )
        trainer = sync_engine(
            LogisticRegressionModel(8, seed=0), streams, SyncSGDStrategy(4),
            cluster, SGD(0.5),
        )
        summary = trainer.run(max_steps=20)
        assert np.isfinite(summary.final_loss)

    def test_summary_describe(self):
        trainer, _ = _setup(SyncSGDStrategy(4))
        text = trainer.run(max_steps=3).describe()
        assert "sync-sgd" in text
        assert "steps" in text


class TestSeedDiscipline:
    def test_same_trace_same_model_updates_when_full_recovery(self):
        """Sync SGD and IS-GC at w=n both fully recover: with identical
        batches their parameter trajectories must coincide."""
        sync, _ = _setup(SyncSGDStrategy(4))
        isgc, _ = _setup(
            ISGCStrategy(CyclicRepetition(4, 2), wait_for=4,
                         rng=np.random.default_rng(0))
        )
        s1 = sync.run(max_steps=15)
        s2 = isgc.run(max_steps=15)
        np.testing.assert_allclose(
            np.array(s1.loss_curve), np.array(s2.loss_curve), atol=1e-8
        )


class TestRecoveryScaledLR:
    def test_scaling_shrinks_low_recovery_steps(self):
        """With recovery-scaled LR, a w=1 run (25% recovery) moves the
        parameters 4x less per step than the unscaled run."""
        import numpy as np

        def build(scaled):
            strat = ISSGDStrategy(4, 1)
            ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
            parts = partition_dataset(ds, 4, seed=2)
            streams = build_batch_streams(parts, batch_size=32, seed=3)
            model = LogisticRegressionModel(8, seed=0)
            cluster = ClusterSimulator(
                4,
                1,
                Environment(
                    delay=NoDelay(),
                    compute=ComputeModel(0.01, 0.01),
                    network=NetworkModel(latency=0.0, bandwidth=float("inf")),
                ),
                rng=np.random.default_rng(0),
            )
            return model, sync_engine(
                model, streams, strat, cluster, SGD(0.5), eval_data=ds,
                recovery_scaled_lr=scaled,
            )

        model_plain, plain = build(False)
        start = model_plain.get_parameters()
        plain.run(max_steps=1)
        step_plain = np.linalg.norm(model_plain.get_parameters() - start)

        model_scaled, scaled = build(True)
        scaled.run(max_steps=1)
        step_scaled = np.linalg.norm(model_scaled.get_parameters() - start)
        assert step_scaled == pytest.approx(step_plain / 4, rel=1e-9)

    def test_full_recovery_unchanged(self):
        """At 100% recovery the scaling multiplier is exactly 1."""
        import numpy as np

        def run(scaled):
            ds = make_classification(256, 8, num_classes=2, seed=1)
            parts = partition_dataset(ds, 4, seed=2)
            streams = build_batch_streams(parts, batch_size=32, seed=3)
            model = LogisticRegressionModel(8, seed=0)
            cluster = ClusterSimulator(
                4,
                1,
                Environment(delay=NoDelay()),
                rng=np.random.default_rng(0),
            )
            trainer = sync_engine(
                model, streams, SyncSGDStrategy(4), cluster, SGD(0.5),
                eval_data=ds, recovery_scaled_lr=scaled,
            )
            return trainer.run(max_steps=10).loss_curve

        np.testing.assert_allclose(run(False), run(True), atol=1e-12)

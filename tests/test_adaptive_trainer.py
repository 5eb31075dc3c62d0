"""Tests for online placement adaptation."""

import numpy as np
import pytest

from repro.core import CyclicRepetition, FractionalRepetition
from repro.engine import AdaptiveMigration, FlatBackend, RoundEngine
from repro.exceptions import TrainingError
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
from repro.straggler import ExponentialDelay, NoDelay
from repro.training import (
    ISGCStrategy,
    LogisticRegressionModel,
    SGD,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


def _setup(initial_placement, wait_for=4, delay=None, **kw):
    n = initial_placement.num_workers
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    streams = build_batch_streams(partition_dataset(ds, n, seed=2), 32, seed=3)
    cluster = ClusterSimulator(
        n, initial_placement.partitions_per_worker,
        compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=delay or ExponentialDelay(0.5),
        rng=np.random.default_rng(0),
    )
    # One generator for strategy and rule, as the adaptive golden records.
    rng = np.random.default_rng(7)
    rule = AdaptiveMigration(
        SGD(0.3),
        wait_for=wait_for,
        network=NetworkModel(latency=0.001, bandwidth=1e9),
        rng=rng,
        **kw,
    )
    trainer = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams,
        ISGCStrategy(initial_placement, wait_for=wait_for, rng=rng),
        FlatBackend(cluster), rule, eval_data=ds,
    )
    return trainer, ds


class TestAdaptiveTrainer:
    def test_migrates_from_cr_to_fr(self):
        """Starting on CR(8,2) at w=4, the advisor finds FR strictly
        better; a cheap migration should fire at the first review."""
        trainer, _ = _setup(
            CyclicRepetition(8, 2), review_every=10, partition_bytes=1e4,
        )
        trainer.run(max_steps=60)
        # At w = 4 FR recovers ~7.9/8 vs CR's ~6.9/8 — comfortably past
        # the 5% default gain threshold.
        assert trainer.rule.migrations, "no migration happened"
        event = trainer.rule.migrations[0]
        assert event.step == 10
        assert "Fractional" in event.to_label
        assert isinstance(trainer.strategy.placement, FractionalRepetition)

    def test_recovery_improves_after_migration(self):
        trainer, _ = _setup(
            CyclicRepetition(8, 2), review_every=15, partition_bytes=1e4,
        )
        trainer.run(max_steps=90)
        assert trainer.rule.migrations
        switch = trainer.rule.migrations[0].step
        before = np.mean(
            [r.recovery_fraction for r in trainer.records[:switch]]
        )
        after = np.mean(
            [r.recovery_fraction for r in trainer.records[switch:]]
        )
        assert after > before

    def test_no_migration_when_already_optimal(self):
        trainer, _ = _setup(
            FractionalRepetition(8, 2), review_every=10, partition_bytes=1e4,
        )
        trainer.run(max_steps=40)
        assert not trainer.rule.migrations

    def test_no_migration_when_cost_prohibitive(self):
        """Huge partitions: the amortisation test must refuse."""
        trainer, _ = _setup(
            CyclicRepetition(8, 2), review_every=10,
            partition_bytes=1e15,
        )
        trainer.run(max_steps=40)
        assert not trainer.rule.migrations

    def test_migration_cost_charged_to_clock(self):
        cheap, _ = _setup(
            CyclicRepetition(8, 2), review_every=10, partition_bytes=1e4,
        )
        cheap_summary = cheap.run(max_steps=40)
        assert cheap.rule.migrations
        cost = sum(m.cost_seconds for m in cheap.rule.migrations)
        assert cost > 0
        # The recorded sim_time includes the accumulated penalty.
        assert cheap_summary.total_sim_time >= cheap.records[-1].wait_time

    def test_training_converges_across_migration(self):
        trainer, _ = _setup(
            CyclicRepetition(8, 2), review_every=10, partition_bytes=1e4,
        )
        summary = trainer.run(max_steps=80)
        assert summary.loss_curve[-1] < summary.loss_curve[0]
        assert "adaptive-is-gc" in summary.scheme

    def test_threshold_stop(self):
        trainer, _ = _setup(
            CyclicRepetition(8, 2), review_every=10, partition_bytes=1e4,
        )
        summary = trainer.run(max_steps=400, loss_threshold=0.25)
        assert summary.reached_threshold
        assert summary.num_steps < 400

    def test_validation(self):
        with pytest.raises(TrainingError):
            _setup(CyclicRepetition(8, 2), review_every=0)
        with pytest.raises(TrainingError):
            _setup(CyclicRepetition(8, 2), min_recovery_gain=2.0)
        trainer, _ = _setup(CyclicRepetition(8, 2))
        with pytest.raises(TrainingError):
            trainer.run(max_steps=0)

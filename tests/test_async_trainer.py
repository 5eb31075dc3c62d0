"""Tests for the asynchronous-SGD baseline."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.engine import AsyncArrivalBackend, AsyncUpdate, RoundEngine
from repro.env import Environment
from repro.exceptions import ConfigurationError, TrainingError
from repro.simulation import ComputeModel, NetworkModel
from repro.straggler import NoDelay, PersistentStragglers, ShiftedExponentialDelay
from repro.training import (
    LogisticRegressionModel,
    SGD,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


def _trainer(n=4, delay=None, lr=0.3, seed=0):
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    parts = partition_dataset(ds, n, seed=2)
    streams = build_batch_streams(parts, batch_size=32, seed=3)
    backend = AsyncArrivalBackend(
        Environment(
            delay=delay or NoDelay(),
            compute=ComputeModel(0.05, 0.05),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        ),
        rng=np.random.default_rng(seed),
    )
    # No coding on the async path: one partition per worker, exactly
    # what ``build_engine`` pairs with ``rule: async``.
    return RoundEngine(
        LogisticRegressionModel(8, seed=0), streams, SyncSGDStrategy(n),
        backend, AsyncUpdate(SGD(lr)), eval_data=ds,
    ), ds


class TestBasics:
    def test_runs_requested_updates(self):
        trainer, _ = _trainer()
        summary = trainer.run_updates(max_updates=40)
        assert summary.num_updates == 40
        assert len(trainer.async_records) == 40

    def test_loss_decreases(self):
        trainer, _ = _trainer()
        summary = trainer.run_updates(max_updates=120)
        assert summary.loss_curve[-1] < summary.loss_curve[0]

    def test_invalid_updates(self):
        trainer, _ = _trainer()
        with pytest.raises(TrainingError):
            trainer.run_updates(max_updates=0)

    def test_empty_streams(self):
        with pytest.raises(TrainingError, match="batch streams"):
            RoundEngine(
                LogisticRegressionModel(4), [], SyncSGDStrategy(4),
                AsyncArrivalBackend(
                    Environment(),
                    rng=np.random.default_rng(0),
                ),
                AsyncUpdate(SGD(0.1)),
            )

    @pytest.mark.parametrize("layer, section", [
        ("failure", {"kind": "transient-dropouts", "probability": 0.1}),
        ("contention", {"kind": "fair-share", "capacity_bytes_per_s": 1e6}),
    ])
    def test_refuses_failures_and_contention(self, layer, section):
        """The per-arrival pipeline simulates neither failures nor a
        contended link: an environment with either is refused, not
        ignored."""
        with pytest.raises(ConfigurationError, match=layer):
            AsyncArrivalBackend(
                Environment(**{layer: section}),
                rng=np.random.default_rng(0),
            )

    def test_time_monotone(self):
        trainer, _ = _trainer()
        trainer.run_updates(max_updates=30)
        times = [r.sim_time for r in trainer.async_records]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_describe(self):
        trainer, _ = _trainer()
        assert "async-sgd" in trainer.run_updates(max_updates=10).describe()


class TestStaleness:
    def test_staleness_nonnegative(self):
        trainer, _ = _trainer()
        trainer.run_updates(max_updates=60)
        assert all(r.staleness >= 0 for r in trainer.async_records)

    def test_homogeneous_workers_staleness_near_n_minus_1(self):
        """With identical speeds, by the time a worker returns, the other
        n−1 have each contributed one update — classic async staleness."""
        trainer, _ = _trainer(n=4)
        summary = trainer.run_updates(max_updates=200)
        assert summary.mean_staleness == pytest.approx(3.0, abs=0.5)

    def test_slow_worker_accumulates_staleness(self):
        # Mildly slow (0.5 s vs 0.1 s rounds) so it still contributes
        # within the budget — its gradients arrive many versions stale.
        slow = PersistentStragglers([0], ShiftedExponentialDelay(0.5, 0.0))
        trainer, _ = _trainer(delay=slow)
        trainer.run_updates(max_updates=150)
        slow_staleness = [r.staleness for r in trainer.async_records if r.worker == 0]
        fast_staleness = [r.staleness for r in trainer.async_records if r.worker != 0]
        assert slow_staleness, "slow worker never contributed"
        assert max(slow_staleness) > max(fast_staleness)

    def test_never_waits_for_stragglers(self):
        """Async keeps updating at the fast workers' cadence: total time
        for K updates is barely affected by one very slow worker."""
        fast_trainer, _ = _trainer(n=4)
        slow = PersistentStragglers([0], ShiftedExponentialDelay(100.0, 0.0))
        slow_trainer, _ = _trainer(n=4, delay=slow)
        t_fast = fast_trainer.run_updates(max_updates=90).total_sim_time
        t_slow = slow_trainer.run_updates(max_updates=90).total_sim_time
        # 3 fast workers instead of 4 → at most ~4/3 slower, never 100 s.
        assert t_slow < 2.0 * t_fast


class TestComparisonWithSync:
    def test_async_time_per_update_beats_sync_under_stragglers(self):
        """The motivation for async: one chronic straggler stalls every
        synchronous step but only its own async contributions."""
        from repro.simulation import ClusterSimulator

        slow = PersistentStragglers([0], ShiftedExponentialDelay(3.0, 0.0))
        async_trainer, ds = _trainer(delay=slow)
        async_summary = async_trainer.run_updates(max_updates=80)

        parts = partition_dataset(ds, 4, seed=2)
        streams = build_batch_streams(parts, batch_size=32, seed=3)
        cluster = ClusterSimulator(
            4,
            1,
            Environment(
                delay=slow,
                compute=ComputeModel(0.05, 0.05),
                network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            ),
            rng=np.random.default_rng(0),
        )
        sync_trainer = sync_engine(
            LogisticRegressionModel(8, seed=0), streams,
            SyncSGDStrategy(4), cluster, SGD(0.3), eval_data=ds,
        )
        sync_summary = sync_trainer.run(max_steps=20)
        async_rate = async_summary.total_sim_time / async_summary.num_updates
        sync_rate = sync_summary.total_sim_time / sync_summary.num_steps
        assert async_rate < sync_rate

"""Tests for online straggler estimation and the adaptive wait policy."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.env import Environment
from repro.exceptions import ConfigurationError
from repro.straggler import EstimatingWaitPolicy, LatencyEstimator


class TestLatencyEstimator:
    def test_first_observation_is_estimate(self):
        est = LatencyEstimator()
        est.update(0, 2.0)
        assert est.estimate(0) == pytest.approx(2.0)

    def test_ewma_moves_toward_new_values(self):
        est = LatencyEstimator(smoothing=0.5)
        est.update(0, 2.0)
        est.update(0, 4.0)
        assert est.estimate(0) == pytest.approx(3.0)

    def test_unobserved_worker_none(self):
        est = LatencyEstimator()
        assert est.estimate(9) is None
        assert est.straggler_score(9) is None

    def test_observation_counter(self):
        est = LatencyEstimator()
        est.update(0, 1.0)
        est.update(0, 1.0)
        assert est.observations(0) == 2
        assert est.observations(1) == 0

    def test_median(self):
        est = LatencyEstimator()
        for worker, latency in enumerate((1.0, 2.0, 9.0)):
            est.update(worker, latency)
        assert est.median_estimate() == pytest.approx(2.0)

    def test_median_even_count(self):
        est = LatencyEstimator()
        for worker, latency in enumerate((1.0, 3.0)):
            est.update(worker, latency)
        assert est.median_estimate() == pytest.approx(2.0)

    def test_straggler_detection(self):
        est = LatencyEstimator(threshold=2.0)
        for worker in range(4):
            est.update(worker, 1.0)
        est.update(4, 10.0)
        assert est.stragglers() == frozenset({4})

    def test_straggler_recovers_after_speedup(self):
        est = LatencyEstimator(smoothing=1.0, threshold=2.0)
        for worker in range(3):
            est.update(worker, 1.0)
        est.update(3, 10.0)
        assert 3 in est.stragglers()
        est.update(3, 1.0)  # smoothing=1.0 → estimate jumps down
        assert 3 not in est.stragglers()

    def test_update_round(self):
        est = LatencyEstimator()
        est.update_round({0: 1.0, 1: 2.0})
        assert est.estimate(1) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyEstimator(smoothing=0.0)
        with pytest.raises(ConfigurationError):
            LatencyEstimator(threshold=1.0)
        with pytest.raises(ConfigurationError):
            LatencyEstimator().update(0, -1.0)


class TestEstimatingWaitPolicy:
    def _arrivals(self, slow_worker=3, slow=10.0):
        arrivals = {w: 1.0 + 0.01 * w for w in range(4)}
        arrivals[slow_worker] = slow
        return arrivals

    def test_waits_for_all_during_warmup(self):
        policy = EstimatingWaitPolicy(LatencyEstimator(), warmup_rounds=2)
        out = policy.wait(self._arrivals(), step=0)
        assert len(out.accepted_workers) == 4

    def test_learns_to_drop_persistent_straggler(self):
        policy = EstimatingWaitPolicy(
            LatencyEstimator(smoothing=0.5), warmup_rounds=2, slack=2.0
        )
        for step in range(6):
            out = policy.wait(self._arrivals(), step=step)
        # After warmup the chronic straggler is no longer waited for.
        assert 3 not in out.accepted_workers
        assert out.proceed_time < 2.0

    def test_never_below_min_wait(self):
        policy = EstimatingWaitPolicy(
            LatencyEstimator(smoothing=1.0), min_wait=2, warmup_rounds=0,
            slack=1.01,
        )
        arrivals = {0: 1.0, 1: 50.0, 2: 60.0, 3: 70.0}
        for step in range(4):
            out = policy.wait(arrivals, step=step)
        assert len(out.accepted_workers) >= 2

    def test_keeps_everyone_when_homogeneous(self):
        policy = EstimatingWaitPolicy(
            LatencyEstimator(), warmup_rounds=1, slack=1.5
        )
        arrivals = {w: 1.0 for w in range(4)}
        policy.wait(arrivals, step=0)
        out = policy.wait(arrivals, step=1)
        assert len(out.accepted_workers) == 4

    def test_validation(self):
        est = LatencyEstimator()
        with pytest.raises(ConfigurationError):
            EstimatingWaitPolicy(est, min_wait=0)
        with pytest.raises(ConfigurationError):
            EstimatingWaitPolicy(est, slack=0.5)
        with pytest.raises(ConfigurationError):
            EstimatingWaitPolicy(est, warmup_rounds=-1)

    def test_integration_with_trainer(self):
        """End to end: the adaptive policy trains and sheds the straggler."""
        from repro.core import CyclicRepetition
        from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
        from repro.straggler import PersistentStragglers, ShiftedExponentialDelay
        from repro.training import (
            ISGCStrategy,
            LogisticRegressionModel,
            SGD,
            build_batch_streams,
            make_classification,
            partition_dataset,
        )

        n = 4
        ds = make_classification(256, 6, num_classes=2, separation=3.0, seed=0)
        streams = build_batch_streams(
            partition_dataset(ds, n, seed=1), 16, seed=2
        )
        policy = EstimatingWaitPolicy(
            LatencyEstimator(smoothing=0.5), warmup_rounds=3, slack=2.0
        )
        strategy = ISGCStrategy(
            CyclicRepetition(n, 2), wait_for=n,
            rng=np.random.default_rng(0), policy=policy,
        )
        cluster = ClusterSimulator(
            n,
            2,
            Environment(
                delay=PersistentStragglers(
                [0], ShiftedExponentialDelay(5.0, 0.0)
            ),
                compute=ComputeModel(0.05, 0.05),
                network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            ),
            rng=np.random.default_rng(1),
        )
        trainer = sync_engine(
            LogisticRegressionModel(6, seed=0), streams, strategy, cluster,
            SGD(0.3), eval_data=ds,
        )
        trainer.run(max_steps=12)
        records = trainer.records
        # Warmup steps pay the straggler; later steps do not.
        assert records[0].wait_time > 5.0
        assert records[-1].wait_time < 1.0
        assert records[-1].num_available == 3

"""Tests for local-update SGD and heterogeneity-aware assignment."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.core import CyclicRepetition, FractionalRepetition
from repro.core.hetero_placement import (
    heterogeneous_recovery,
    optimize_assignment,
)
from repro.engine import (
    ExperimentSpec,
    FlatBackend,
    LocalUpdate,
    RoundEngine,
    build_engine,
)
from repro.env import Environment
from repro.exceptions import ConfigurationError, TrainingError
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


def _workload(n=4):
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    streams = build_batch_streams(partition_dataset(ds, n, seed=2), 32, seed=3)
    return ds, streams


def _cluster(n=4, c=2, delay=None):
    return ClusterSimulator(
        n,
        c,
        Environment(
            delay=delay or NoDelay(),
            compute=ComputeModel(0.02, 0.02),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        ),
        rng=np.random.default_rng(0),
    )


class TestLocalUpdateTrainer:
    def _trainer(self, tau, wait_for=4, lr=0.3, delay=None):
        ds, streams = _workload()
        strategy = ISGCStrategy(
            CyclicRepetition(4, 2), wait_for=wait_for,
            rng=np.random.default_rng(0),
        )
        return RoundEngine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            FlatBackend(_cluster(delay=delay)),
            LocalUpdate(local_steps=tau, local_lr=lr), eval_data=ds,
        ), ds, streams

    def test_converges(self):
        trainer, _, _ = self._trainer(tau=4)
        summary = trainer.run(max_steps=25)
        assert summary.loss_curve[-1] < summary.loss_curve[0]
        assert "τ=4" in summary.scheme

    def test_tau_one_matches_plain_trainer(self):
        """τ = 1 with matching step sizes reproduces the sync rule
        exactly (delta = lr·grad; master applies mean delta)."""
        local, ds, streams = self._trainer(tau=1, lr=0.3)
        local_summary = local.run(max_steps=15)

        strategy = ISGCStrategy(
            CyclicRepetition(4, 2), wait_for=4, rng=np.random.default_rng(0)
        )
        plain = sync_engine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            _cluster(), SGD(0.3), eval_data=ds,
        )
        plain_summary = plain.run(max_steps=15)
        np.testing.assert_allclose(
            np.array(local_summary.loss_curve),
            np.array(plain_summary.loss_curve),
            atol=1e-10,
        )

    def test_fewer_rounds_for_same_batch_budget(self):
        """τ = 4 consumes 4 batches per round: at equal total batches it
        needs 4× fewer communication rounds (straggler waits)."""
        tau4, _, _ = self._trainer(tau=4, lr=0.15)
        s4 = tau4.run(max_steps=10)  # 40 batches per partition
        assert s4.num_steps == 10
        assert s4.loss_curve[-1] < s4.loss_curve[0]

    def test_partial_recovery_rounds(self):
        trainer, _, _ = self._trainer(
            tau=2, wait_for=2, delay=ExponentialDelay(0.5)
        )
        summary = trainer.run(max_steps=15)
        assert 0 < summary.avg_recovery_fraction <= 1.0

    def test_replica_determinism(self):
        """The property that makes local SGD codable: every replica of a
        partition computes the identical delta."""
        ds, streams = _workload()
        strategy = ISGCStrategy(
            FractionalRepetition(4, 2), wait_for=4,
            rng=np.random.default_rng(0),
        )
        rule = LocalUpdate(local_steps=3, local_lr=0.1)
        engine = RoundEngine(
            LogisticRegressionModel(8, seed=0), streams, strategy,
            FlatBackend(_cluster()), rule, eval_data=ds,
        )
        start = engine.model.get_parameters()
        d1, _ = rule.compute_partitions(engine, 0)
        d2, _ = rule.compute_partitions(engine, 0)
        for pid in range(4):
            np.testing.assert_array_equal(d1[pid], d2[pid])
        # ... and the local trajectories never touch the shared model.
        np.testing.assert_array_equal(engine.model.get_parameters(), start)

    def test_validation(self):
        with pytest.raises(TrainingError, match="local_steps"):
            LocalUpdate(local_steps=0, local_lr=0.1)
        with pytest.raises(TrainingError, match="local_lr"):
            LocalUpdate(local_steps=2, local_lr=-0.1)
        trainer, _, _ = self._trainer(tau=2)
        with pytest.raises(TrainingError):
            trainer.run(max_steps=0)


    def test_actor_backend_runs_delta_rules_like_flat(self):
        # The actor backend is the flat round with model-sized messages;
        # on an ideal network the size costs nothing, so a local-update
        # run must match flat's to the bit.
        runs = []
        for backend in ("actor", "flat"):
            engine = build_engine(ExperimentSpec(
                name="actor-local", scheme="is-gc-cr", num_workers=4,
                partitions_per_worker=2, wait_for=2, backend=backend,
                rule="local-update", rule_params={"local_steps": 3},
                max_steps=8, seed=5, network={"kind": "ideal"},
            ))
            runs.append((engine, engine.run(8)))
        (actor, actor_summary), (flat, flat_summary) = runs
        assert actor_summary.loss_curve == flat_summary.loss_curve
        assert actor_summary.total_sim_time == flat_summary.total_sim_time
        assert actor.records == flat.records
        np.testing.assert_array_equal(
            actor.model.get_parameters(), flat.model.get_parameters()
        )


class TestHeterogeneousRecovery:
    def test_uniform_matches_monte_carlo(self):
        """Equal delay means reduce to the uniform-subset model."""
        from repro.analysis import monte_carlo_recovery

        placement = CyclicRepetition(6, 2)
        hetero = heterogeneous_recovery(
            placement, 3, [1.0] * 6, trials=6000, seed=0
        )
        uniform = monte_carlo_recovery(placement, 3, trials=6000, seed=0)
        assert hetero == pytest.approx(uniform.mean_recovered, rel=0.05)

    def test_slow_machines_rarely_contribute(self):
        placement = FractionalRepetition(4, 2)
        # Machines 0,1 extremely slow → available set ≈ {workers 2,3}
        # = one FR group → 2 partitions recovered.
        value = heterogeneous_recovery(
            placement, 2, [100.0, 100.0, 0.001, 0.001], trials=500, seed=1
        )
        assert value == pytest.approx(2.0, abs=0.1)

    def test_validation(self):
        placement = CyclicRepetition(4, 2)
        with pytest.raises(ConfigurationError):
            heterogeneous_recovery(placement, 2, [1.0] * 3)
        with pytest.raises(ConfigurationError):
            heterogeneous_recovery(placement, 9, [1.0] * 4)
        with pytest.raises(ConfigurationError):
            heterogeneous_recovery(placement, 2, [1.0] * 4, assignment=[0, 0, 1, 2])


class TestOptimizeAssignment:
    def test_spreads_slow_machines_across_fr_groups(self):
        """Two chronically slow machines in the SAME FR group waste a
        group every step; the optimiser should separate them."""
        placement = FractionalRepetition(4, 2)
        # Machines 0 and 1 are slow; identity puts both into group 0.
        delay_means = [50.0, 50.0, 0.01, 0.01]
        result = optimize_assignment(
            placement, 2, delay_means, trials=800, seed=2
        )
        groups_of_slow = {result.assignment[0] // 2, result.assignment[1] // 2}
        assert len(groups_of_slow) == 2, "slow machines not separated"
        assert result.improvement > 0.5

    def test_no_change_when_homogeneous(self):
        placement = FractionalRepetition(4, 2)
        result = optimize_assignment(
            placement, 2, [1.0] * 4, trials=400, max_passes=1, seed=3
        )
        # Nothing to gain — improvement stays within noise.
        assert abs(result.improvement) < 0.3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            optimize_assignment(
                CyclicRepetition(4, 2), 2, [1.0] * 4, max_passes=0
            )

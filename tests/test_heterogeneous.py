"""Tests for heterogeneous-cluster modelling."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulation import (
    ClusterSimulator,
    ComputeModel,
    HeterogeneousComputeModel,
    HeterogeneousDelayAdapter,
    NetworkModel,
    WaitForK,
)


class TestHeterogeneousComputeModel:
    def test_step_time_scaled(self):
        model = HeterogeneousComputeModel(
            ComputeModel(0.1, 0.2), {0: 1.0, 1: 3.0}
        )
        assert model.step_time_for(0, 2) == pytest.approx(0.5)
        assert model.step_time_for(1, 2) == pytest.approx(1.5)

    def test_unknown_worker_defaults_to_one(self):
        model = HeterogeneousComputeModel(ComputeModel(0.1, 0.2), {})
        assert model.factor(7) == 1.0

    def test_worker_view_matches(self):
        model = HeterogeneousComputeModel(
            ComputeModel(0.1, 0.2), {2: 2.0}
        )
        view = model.worker_view(2)
        assert view.step_time(3) == pytest.approx(model.step_time_for(2, 3))

    def test_non_positive_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousComputeModel(ComputeModel(), {0: 0.0})

    def test_speed_factors_copy(self):
        model = HeterogeneousComputeModel(ComputeModel(), {0: 2.0})
        factors = model.speed_factors
        factors[0] = 99.0
        assert model.factor(0) == 2.0


class TestDelayAdapter:
    def test_surplus_only(self):
        model = HeterogeneousComputeModel(
            ComputeModel(0.1, 0.1), {0: 3.0}
        )
        adapter = HeterogeneousDelayAdapter(model, partitions_per_worker=2)
        rng = np.random.default_rng(0)
        # Fast worker: no extra delay; slow worker: (3-1)×0.3 = 0.6 s.
        assert adapter.sample(1, 0, rng) == pytest.approx(0.0)
        assert adapter.sample(0, 0, rng) == pytest.approx(0.6)

    def test_validation(self):
        model = HeterogeneousComputeModel(ComputeModel(), {})
        with pytest.raises(ConfigurationError):
            HeterogeneousDelayAdapter(model, partitions_per_worker=0)

    def test_drives_cluster_simulator(self):
        """Heterogeneous cluster end to end: wait-k dodges the slow tier."""
        het = HeterogeneousComputeModel(
            ComputeModel(0.1, 0.1), {3: 10.0}
        )
        sim = ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=ComputeModel(0.1, 0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=HeterogeneousDelayAdapter(het, 2),
            rng=np.random.default_rng(0),
        )
        result = sim.run_round(0, WaitForK(3))
        assert 3 not in result.outcome.accepted_workers
        assert result.step_time == pytest.approx(0.3)
        full = sim.run_round(1, WaitForK(4))
        assert full.step_time == pytest.approx(3.0)

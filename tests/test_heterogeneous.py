"""Tests for heterogeneous-cluster modelling."""

import numpy as np
import pytest

from repro.engine import ExperimentSpec, build_engine
from repro.exceptions import ConfigurationError
from repro.obs import RoundTracer
from repro.simulation import (
    ClusterSimulator,
    ComputeModel,
    HeterogeneousComputeModel,
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

    def test_drives_cluster_simulator(self):
        """Heterogeneous cluster end to end: wait-k dodges the slow tier."""
        sim = ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=HeterogeneousComputeModel(
                ComputeModel(0.1, 0.1), {3: 10.0}
            ),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            rng=np.random.default_rng(0),
        )
        result = sim.run_round(0, WaitForK(3))
        assert 3 not in result.outcome.accepted_workers
        assert result.step_time == pytest.approx(0.3)
        full = sim.run_round(1, WaitForK(4))
        assert full.step_time == pytest.approx(3.0)


class TestHeterogeneousComputeSection:
    """``compute: {kind: "heterogeneous"}`` on every backend: one 10×
    slow worker and no delay model, so its uploads come in last."""

    SLOW = 3

    def _spec(self, backend="flat", rule="sync", max_steps=4):
        return ExperimentSpec(
            name="heterogeneous",
            scheme="sync-sgd",
            num_workers=4,
            backend=backend,
            rule=rule,
            max_steps=max_steps,
            delay={"kind": "none"},
            compute={"kind": "heterogeneous",
                     "speed_factors": {self.SLOW: 10.0}},
        )

    @pytest.mark.parametrize("backend", ["flat", "actor"])
    def test_round_backends(self, backend):
        spec = self._spec(backend)
        tracer = RoundTracer()
        build_engine(spec, tracer=tracer).run(spec.max_steps)
        assert len(tracer.traces) == spec.max_steps
        for trace in tracer.traces:
            slow = trace.arrivals[self.SLOW]
            assert list(trace.arrivals)[-1] == self.SLOW
            assert all(
                t < slow for w, t in trace.arrivals.items() if w != self.SLOW
            )

    def test_async_backend(self):
        # 3 fast workers upload ~9 times each before the slow one's first.
        spec = self._spec(rule="async", max_steps=40)
        engine = build_engine(spec)
        engine.run_updates(spec.max_steps)
        first = {}
        for record in engine.async_records:
            first.setdefault(record.worker, record.sim_time)
        assert sorted(first) == [0, 1, 2, 3]
        assert max(first, key=first.get) == self.SLOW
        assert all(
            t < first[self.SLOW] for w, t in first.items() if w != self.SLOW
        )
        counts = [r.worker for r in engine.async_records].count
        assert counts(self.SLOW) < min(counts(w) for w in (0, 1, 2))

"""Tests for straggler delay models and traces."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.straggler import (
    BernoulliStraggler,
    DelayTrace,
    ExponentialDelay,
    MixtureDelay,
    NoDelay,
    ParetoDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
    TraceReplayModel,
)


class TestNoDelay:
    def test_always_zero(self, rng):
        model = NoDelay()
        assert all(model.sample(w, s, rng) == 0.0 for w in range(4) for s in range(4))


class TestExponentialDelay:
    def test_mean_matches(self, rng):
        model = ExponentialDelay(2.0)
        samples = [model.sample(0, s, rng) for s in range(20_000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.05)

    def test_non_negative(self, rng):
        model = ExponentialDelay(1.0)
        assert all(model.sample(0, s, rng) >= 0 for s in range(1000))

    def test_affected_subset_only(self, rng):
        model = ExponentialDelay(5.0, affected=[0, 1])
        assert model.sample(2, 0, rng) == 0.0
        assert model.sample(3, 0, rng) == 0.0
        assert model.sample(0, 0, rng) > 0.0 or model.sample(0, 1, rng) >= 0.0

    def test_zero_mean_is_zero(self, rng):
        assert ExponentialDelay(0.0).sample(0, 0, rng) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            ExponentialDelay(-1.0)


class TestShiftedExponential:
    def test_floor_respected(self, rng):
        model = ShiftedExponentialDelay(shift=0.5, mean=1.0)
        assert all(model.sample(0, s, rng) >= 0.5 for s in range(500))

    def test_zero_tail(self, rng):
        model = ShiftedExponentialDelay(shift=0.3, mean=0.0)
        assert model.sample(0, 0, rng) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShiftedExponentialDelay(-0.1, 1.0)
        with pytest.raises(ConfigurationError):
            ShiftedExponentialDelay(0.1, -1.0)


class TestPareto:
    def test_non_negative(self, rng):
        model = ParetoDelay(alpha=2.0, scale=1.0)
        assert all(model.sample(0, s, rng) >= 0 for s in range(500))

    def test_heavier_tail_than_exponential(self, rng):
        pareto = ParetoDelay(alpha=1.2, scale=1.0)
        samples = np.array([pareto.sample(0, s, rng) for s in range(20_000)])
        # α ≤ 2 Pareto has effectively unbounded empirical variance;
        # its p99.9/p50 ratio dwarfs the exponential's (~10).
        p999 = np.percentile(samples, 99.9)
        p50 = np.percentile(samples, 50)
        assert p999 / p50 > 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParetoDelay(alpha=0.0, scale=1.0)
        with pytest.raises(ConfigurationError):
            ParetoDelay(alpha=1.0, scale=-1.0)


class TestBernoulli:
    def test_probability_zero_never_delays(self, rng):
        model = BernoulliStraggler(0.0, ExponentialDelay(10.0))
        assert all(model.sample(0, s, rng) == 0.0 for s in range(200))

    def test_probability_one_always_draws(self, rng):
        model = BernoulliStraggler(1.0, ShiftedExponentialDelay(1.0, 0.0))
        assert all(model.sample(0, s, rng) == pytest.approx(1.0) for s in range(50))

    def test_rate_approximates_p(self, rng):
        model = BernoulliStraggler(0.3, ShiftedExponentialDelay(1.0, 0.0))
        hits = sum(model.sample(0, s, rng) > 0 for s in range(10_000))
        assert hits / 10_000 == pytest.approx(0.3, abs=0.03)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliStraggler(1.5, NoDelay())


class TestPersistent:
    def test_only_chosen_workers_straggle(self, rng):
        model = PersistentStragglers([2], ShiftedExponentialDelay(5.0, 0.0))
        assert model.sample(2, 0, rng) == pytest.approx(5.0)
        assert model.sample(0, 0, rng) == 0.0
        assert model.straggler_workers == frozenset({2})

    def test_background_delay(self, rng):
        model = PersistentStragglers(
            [0], ShiftedExponentialDelay(5.0, 0.0),
            background_delay=ShiftedExponentialDelay(0.1, 0.0),
        )
        assert model.sample(1, 0, rng) == pytest.approx(0.1)


class TestMixture:
    def test_single_component(self, rng):
        model = MixtureDelay([ShiftedExponentialDelay(2.0, 0.0)], [1.0])
        assert model.sample(0, 0, rng) == pytest.approx(2.0)

    def test_weights_normalised(self, rng):
        model = MixtureDelay(
            [ShiftedExponentialDelay(1.0, 0.0), ShiftedExponentialDelay(3.0, 0.0)],
            [2.0, 2.0],
        )
        vals = {round(model.sample(0, s, rng), 6) for s in range(200)}
        assert vals == {1.0, 3.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MixtureDelay([], [])
        with pytest.raises(ConfigurationError):
            MixtureDelay([NoDelay()], [0.0])
        with pytest.raises(ConfigurationError):
            MixtureDelay([NoDelay(), NoDelay()], [1.0])


class TestDelayTrace:
    def test_record_and_replay(self, rng):
        model = ExponentialDelay(1.0)
        trace = DelayTrace.record(model, num_workers=3, num_steps=5, rng=rng)
        replay = TraceReplayModel(trace)
        for step in range(5):
            for worker in range(3):
                assert replay.sample(worker, step, rng) == trace.delay(worker, step)

    def test_steps_wrap(self, rng):
        trace = DelayTrace.record(ExponentialDelay(1.0), 2, 3, rng)
        assert trace.delay(0, 5) == trace.delay(0, 2)

    def test_worker_out_of_range(self, rng):
        trace = DelayTrace.record(NoDelay(), 2, 2, rng)
        with pytest.raises(SimulationError):
            trace.delay(5, 0)

    def test_roundtrip_dict(self, rng):
        trace = DelayTrace.record(ExponentialDelay(1.0), 3, 4, rng)
        clone = DelayTrace.from_dict(trace.to_dict())
        np.testing.assert_allclose(clone.delays, trace.delays)

    def test_from_dict_missing_key(self):
        with pytest.raises(ConfigurationError):
            DelayTrace.from_dict({})

    def test_negative_delays_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayTrace(np.array([[-1.0]]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayTrace(np.zeros(3))

    def test_replay_deterministic_across_rngs(self):
        trace = DelayTrace.record(
            ExponentialDelay(1.0), 2, 2, np.random.default_rng(0)
        )
        replay = TraceReplayModel(trace)
        a = replay.sample(0, 0, np.random.default_rng(1))
        b = replay.sample(0, 0, np.random.default_rng(2))
        assert a == b

    def test_dimensions(self, rng):
        trace = DelayTrace.record(NoDelay(), 4, 7, rng)
        assert trace.num_workers == 4
        assert trace.num_steps == 7

    def test_invalid_dimensions(self, rng):
        with pytest.raises(ConfigurationError):
            DelayTrace.record(NoDelay(), 0, 5, rng)

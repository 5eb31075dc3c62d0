"""Engine-level tests: backend equivalence and the closed name tables.

Two properties anchor the engine:

* **flat == actor, exactly.**  The hypothesis test runs the same
  :class:`~repro.engine.spec.ExperimentSpec` through both backend
  names and demands the full trajectories — losses, step times,
  recovered counts, accepted sets, final parameters — be equal with
  ``==``, not ``approx``.  The spec pins a zero-latency,
  infinite-bandwidth network because the two charge different message
  sizes (the model's parameter count vs 10 000 elements); with that
  cost zeroed they must consume identical delay-model draws and
  produce identical arithmetic.

* **Schemes and backends are closed tables.**  An unknown scheme is
  refused by :func:`~repro.engine.spec.make_strategy` and an unknown
  backend by spec construction, each naming the table's entries.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ExperimentSpec,
    build_engine,
    make_strategy,
    run_spec,
)
from repro.engine.spec import BACKEND_REGISTRY, SCHEME_REGISTRY
from repro.exceptions import ConfigurationError

# Zero network cost: actor and flat messages differ in size, so exact
# cross-backend equality needs a free network (zero latency, infinite
# bandwidth; a spec holds no infinity, so it names the family).
FREE_NETWORK = "ideal"


def _spec(scheme, *, wait_for, seed, max_steps=6, **over):
    return ExperimentSpec(
        name="equiv",
        scheme=scheme,
        num_workers=4,
        partitions_per_worker=2,
        wait_for=wait_for,
        max_steps=max_steps,
        seed=seed,
        network=FREE_NETWORK,
        **over,
    )


def _record_key(record):
    return (
        record.step,
        record.num_available,
        record.num_recovered,
        record.recovery_fraction,
        record.loss,
        record.grad_norm,
        record.wait_time,
        record.sim_time,
    )


class TestBackendEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        scheme=st.sampled_from(["sync-sgd", "is-sgd", "is-gc-fr", "is-gc-cr"]),
        wait_for=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_flat_and_actor_trajectories_identical(
        self, scheme, wait_for, seed
    ):
        spec = _spec(scheme, wait_for=wait_for, seed=seed)
        flat_engine = build_engine(dataclasses.replace(spec, backend="flat"))
        actor_engine = build_engine(dataclasses.replace(spec, backend="actor"))

        flat_summary = flat_engine.run(spec.max_steps)
        actor_summary = actor_engine.run(spec.max_steps)

        assert flat_summary.loss_curve == actor_summary.loss_curve
        assert flat_summary.total_sim_time == actor_summary.total_sim_time
        assert len(flat_engine.records) == len(actor_engine.records)
        for fr, ar in zip(flat_engine.records, actor_engine.records):
            assert _record_key(fr) == _record_key(ar)
        np.testing.assert_array_equal(
            flat_engine.model.get_parameters(),
            actor_engine.model.get_parameters(),
        )

    def test_hr_scheme_matches_across_backends(self):
        spec = ExperimentSpec(
            name="hr-equiv",
            scheme="is-gc-hr",
            num_workers=6,
            wait_for=3,
            max_steps=6,
            seed=5,
            network=FREE_NETWORK,
            scheme_params={"c1": 1, "c2": 2, "num_groups": 2},
        )
        flat = run_spec(dataclasses.replace(spec, backend="flat"))
        actor = run_spec(dataclasses.replace(spec, backend="actor"))
        assert flat.loss_curve == actor.loss_curve
        assert flat.total_sim_time == actor.total_sim_time

    def test_async_rule_forces_arrival_backend(self):
        spec = _spec("sync-sgd", wait_for=None, seed=3, rule="async")
        summary = run_spec(spec)
        assert summary.num_updates == spec.max_steps


class TestRegistries:
    def test_unknown_scheme_lists_known_ones(self):
        with pytest.raises(ConfigurationError, match="is-gc-cr"):
            make_strategy("no-such-scheme", num_workers=4)

    def test_registration_never_silently_overwrites(self):
        flat, is_gc = BACKEND_REGISTRY["flat"], SCHEME_REGISTRY["is-gc"]
        with pytest.raises(ConfigurationError, match="already registered"):
            BACKEND_REGISTRY.register("flat", "another round")
        with pytest.raises(ConfigurationError, match="already registered"):
            SCHEME_REGISTRY.register("is-gc", "fr")
        assert BACKEND_REGISTRY["flat"] is flat
        assert SCHEME_REGISTRY["is-gc"] is is_gc

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError, match="warp-drive"):
            _spec("is-gc-cr", wait_for=2, seed=0, backend="warp-drive")


class TestSweepOverSpec:
    def test_sweep_varies_spec_fields(self):
        from repro.experiments.sweep import Sweep

        base = _spec("is-gc-cr", wait_for=2, seed=1, max_steps=4)
        sweep = Sweep.over_spec(
            "wait-for sweep", base, {"wait_for": [2, 3], "seed": [1, 2]}
        )
        result = sweep.run(strict=True)
        assert len(result) == 4
        assert result.ok
        assert {p.params["wait_for"] for p in result} == {2, 3}

    def test_sweep_rejects_non_spec_fields(self):
        from repro.experiments.sweep import Sweep

        base = _spec("is-gc-cr", wait_for=2, seed=1)
        with pytest.raises(ConfigurationError, match="not spec fields"):
            Sweep.over_spec("bad", base, {"warp_factor": [9]})

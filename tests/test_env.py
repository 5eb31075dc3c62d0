"""Tests for :mod:`repro.env` — the unified environment layer.

Three layers of pinning, mirroring ``tests/test_scheme.py``:

* **Golden equivalence** — ``tests/golden/environments.json`` was
  recorded at the commit introducing ``repro.env`` (see
  ``tests/golden/record_environment_goldens.py``); every family built
  by registry name must reproduce its fingerprint and its sampled
  stream bit for bit.
* **Registry/Environment unit tests** — lookup, aliases, did-you-mean
  errors, parameter validation, provenance specs, the composite
  :class:`~repro.env.Environment` (fingerprint / describe / reset /
  sections round-trip / simulator wiring), and trace save/load.
* **Hypothesis properties** — registry-built models consume the RNG
  exactly as direct construction does (identical streams *and*
  identical generator end-state), and ``sample_round`` is bit-for-bit
  the per-worker scalar loop for every family, nested composites
  included.
"""

import copy
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env import (
    ENV_REGISTRY,
    Environment,
    LAYERS,
    delay_model_from,
    make_compute_model,
    make_contention_model,
    make_delay_model,
    make_failure_model,
    make_model,
    make_network_model,
    model_fingerprint,
    model_spec_problems,
    registered_models,
    resolve_model,
    spec_of,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.cluster import ClusterSimulator, ComputeModel
from repro.simulation.network import NetworkModel
from repro.straggler.failures import (
    CompositeFailures,
    PermanentCrashes,
    TransientDropouts,
)
from repro.straggler.models import (
    BernoulliStraggler,
    BurstyDelay,
    DiurnalDelay,
    ExponentialDelay,
    MixtureDelay,
    NoDelay,
    ParetoDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
)
from repro.straggler.traces import DelayTrace, TraceReplayModel

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "environments.json")
    .read_text()
)

WORKERS = list(range(8))
STEPS = 4
ELEMENTS = 10_000


# ----------------------------------------------------------------------
# Golden equivalence
# ----------------------------------------------------------------------
def _case_id(case):
    return f"{case['layer']}:{case['kind']}"


class TestGoldenEnvironments:
    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=_case_id)
    def test_fingerprint_pinned(self, case):
        model = make_model(case["layer"], case["kind"], **case["params"])
        assert model_fingerprint(model) == case["fingerprint"]

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=_case_id)
    def test_behaviour_pinned(self, case):
        model = make_model(case["layer"], case["kind"], **case["params"])
        layer, probe = case["layer"], case["probe"]
        if layer == "delay":
            rng = np.random.default_rng(7)
            for step, expected in enumerate(probe["delays"]):
                got = model.sample_round(WORKERS, step, rng)
                assert [float(x) for x in got] == expected
        elif layer == "failure":
            rng = np.random.default_rng(7)
            for step, expected in enumerate(probe["alive"]):
                got = [model.is_alive(w, step, rng) for w in WORKERS]
                assert got == expected
        elif layer == "compute":
            if "worker_times" in probe:
                got = [
                    [model.step_time_for(w, c) for w in WORKERS]
                    for c in range(1, 5)
                ]
                assert got == probe["worker_times"]
            else:
                assert [model.step_time(c) for c in range(1, 5)] == probe["times"]
        elif layer == "network":
            assert model.broadcast_time(ELEMENTS, len(WORKERS)) == probe["broadcast"]
            assert model.transfer_time(ELEMENTS) == probe["transfer"]
        elif layer == "contention":
            starts = {w: 0.1 * w for w in WORKERS}
            result = model.round_arrivals(starts, ELEMENTS)
            assert {str(w): t for w, t in result.arrivals.items()} == probe["arrivals"]

    def test_every_registered_family_has_a_golden(self):
        """No family sneaks in unpinned (parameterless kinds aside)."""
        covered = {(c["layer"], c["kind"]) for c in GOLDEN["cases"]}
        for layer in ("delay", "failure"):
            for kind in registered_models(layer):
                assert (layer, kind) in covered, f"no golden for {layer}:{kind}"


# ----------------------------------------------------------------------
# Registry == direct construction, stream + end-state identical
# ----------------------------------------------------------------------
#: kind → (registry params, equivalent direct construction).
DIRECT_EQUIVALENTS = [
    ("none", {}, lambda: NoDelay()),
    ("exponential", {"mean": 1.5}, lambda: ExponentialDelay(1.5)),
    ("exponential", {"mean": 2.0, "affected": [0, 2, 5]},
     lambda: ExponentialDelay(2.0, affected=[0, 2, 5])),
    ("shifted-exponential", {"shift": 3.0, "mean": 0.5},
     lambda: ShiftedExponentialDelay(3.0, 0.5)),
    ("pareto", {"alpha": 2.5, "scale": 0.3}, lambda: ParetoDelay(2.5, 0.3)),
    ("bernoulli",
     {"probability": 0.3, "delay": {"kind": "exponential", "mean": 2.0}},
     lambda: BernoulliStraggler(0.3, ExponentialDelay(2.0))),
    ("persistent",
     {"stragglers": [0, 1], "mean": 3.0, "background_mean": 0.2},
     lambda: PersistentStragglers(
         [0, 1], ExponentialDelay(3.0),
         background_delay=ExponentialDelay(0.2))),
    ("persistent",
     {"stragglers": [1, 3],
      "delay": {"kind": "shifted-exponential", "shift": 3.0, "mean": 0.5},
      "background": {"kind": "exponential", "mean": 0.2}},
     lambda: PersistentStragglers(
         [1, 3], ShiftedExponentialDelay(3.0, 0.5),
         background_delay=ExponentialDelay(0.2))),
    ("diurnal",
     {"base": {"kind": "exponential", "mean": 1.0},
      "period_steps": 3, "amplitude": 0.5},
     lambda: DiurnalDelay(ExponentialDelay(1.0), 3, 0.5)),
    ("bursty",
     {"burst": {"kind": "exponential", "mean": 4.0},
      "enter_burst": 0.3, "exit_burst": 0.4},
     lambda: BurstyDelay(ExponentialDelay(4.0), 0.3, 0.4)),
    ("mixture",
     {"models": [{"kind": "exponential", "mean": 0.2},
                 {"kind": "shifted-exponential", "shift": 2.0, "mean": 1.0}],
      "weights": [0.7, 0.3]},
     lambda: MixtureDelay(
         [ExponentialDelay(0.2), ShiftedExponentialDelay(2.0, 1.0)],
         [0.7, 0.3])),
]


def _ids(entry):
    kind, params, _ = entry
    return f"{kind}-{len(params)}p"


class TestRegistryDirectEquivalence:
    @pytest.mark.parametrize("entry", DIRECT_EQUIVALENTS, ids=_ids)
    def test_stream_and_state_identical(self, entry):
        kind, params, direct = entry
        via_registry = make_delay_model(kind, **copy.deepcopy(params))
        via_ctor = direct()
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        for step in range(STEPS):
            a = [via_registry.sample(w, step, rng_a) for w in WORKERS]
            b = [via_ctor.sample(w, step, rng_b) for w in WORKERS]
            assert a == b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("entry", DIRECT_EQUIVALENTS, ids=_ids)
    def test_sample_round_matches_scalar_loop(self, entry):
        kind, params, _ = entry
        batched = make_delay_model(kind, **copy.deepcopy(params))
        looped = make_delay_model(kind, **copy.deepcopy(params))
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        for step in range(STEPS):
            a = batched.sample_round(WORKERS, step, rng_a)
            b = np.array(
                [looped.sample(w, step, rng_b) for w in WORKERS], dtype=float
            )
            np.testing.assert_array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(
        mean=st.floats(0.01, 10.0, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
        num_affected=st.integers(0, 8),
    )
    def test_exponential_property(self, mean, seed, num_affected):
        affected = list(range(num_affected)) if num_affected < 8 else None
        kwargs = {"mean": mean}
        if affected is not None:
            kwargs["affected"] = affected
        via_registry = make_delay_model("exponential", **kwargs)
        via_ctor = ExponentialDelay(mean, affected=affected)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        a = via_registry.sample_round(WORKERS, 0, rng_a)
        b = np.array([via_ctor.sample(w, 0, rng_b) for w in WORKERS])
        np.testing.assert_array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(
        shift=st.floats(0.0, 5.0, allow_nan=False),
        mean=st.floats(0.0, 5.0, allow_nan=False),
        alpha=st.floats(1.1, 5.0, allow_nan=False),
        scale=st.floats(0.01, 2.0, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_shifted_and_pareto_property(self, shift, mean, alpha, scale, seed):
        for kind, params, direct in (
            ("shifted-exponential", {"shift": shift, "mean": mean},
             ShiftedExponentialDelay(shift, mean)),
            ("pareto", {"alpha": alpha, "scale": scale},
             ParetoDelay(alpha, scale)),
        ):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            a = make_delay_model(kind, **params).sample_round(WORKERS, 0, rng_a)
            b = np.array([direct.sample(w, 0, rng_b) for w in WORKERS])
            np.testing.assert_array_equal(a, b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_failure_models_equivalent(self):
        pairs = [
            (make_failure_model("permanent-crashes",
                                crashed_workers=[2], at_step=1),
             PermanentCrashes([2], at_step=1)),
            (make_failure_model("transient-dropouts", probability=0.2),
             TransientDropouts(0.2)),
            (make_failure_model(
                "composite",
                models=[{"kind": "permanent-crashes", "crashed_workers": [5]},
                        {"kind": "transient-dropouts", "probability": 0.1}]),
             CompositeFailures(
                 [PermanentCrashes([5]), TransientDropouts(0.1)])),
        ]
        for via_registry, via_ctor in pairs:
            rng_a = np.random.default_rng(5)
            rng_b = np.random.default_rng(5)
            for step in range(STEPS):
                a = [via_registry.is_alive(w, step, rng_a) for w in WORKERS]
                b = [via_ctor.is_alive(w, step, rng_b) for w in WORKERS]
                assert a == b
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_compute_and_network_equivalent(self):
        assert make_compute_model("uniform", base=0.05, per_partition=0.1) == \
            ComputeModel(0.05, 0.1)
        assert make_network_model(
            "uniform", latency=0.002, bandwidth=1e9
        ) == NetworkModel(latency=0.002, bandwidth=1e9)
        ideal = make_network_model("ideal")
        assert ideal.latency == 0.0 and ideal.bandwidth == float("inf")


# ----------------------------------------------------------------------
# sample_round contracts
# ----------------------------------------------------------------------
class TestSampleRound:
    def test_empty_worker_list(self):
        for kind in ("none", "exponential", "pareto"):
            model = make_delay_model(
                kind, **({"alpha": 2.0, "scale": 1.0} if kind == "pareto" else {})
            )
            rng = np.random.default_rng(0)
            state = copy.deepcopy(rng.bit_generator.state)
            out = model.sample_round([], 0, rng)
            assert out.shape == (0,)
            assert rng.bit_generator.state == state  # nothing consumed

    def test_trace_replay_sample_round(self):
        table = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        model = TraceReplayModel(DelayTrace(table))
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            model.sample_round([2, 0], 1, rng), [5.0, 3.0]
        )
        # Steps wrap module the trace length, as scalar sample does.
        np.testing.assert_array_equal(
            model.sample_round([1], 2, rng), [1.0]
        )

    @pytest.mark.parametrize(
        "workers, bad",
        [
            ([0, -1, 2], -1),
            ([1, 3, 0], 3),
            ([2, 5, 4], 5),
            ([np.int64(0), np.int64(3)], 3),
        ],
    )
    def test_trace_replay_names_first_outside_worker(self, workers, bad):
        model = TraceReplayModel(DelayTrace(np.zeros((2, 3))))
        with pytest.raises(SimulationError) as err:
            model.sample_round(workers, 0, np.random.default_rng(0))
        assert str(err.value) == f"worker {bad} outside trace width 3"

    def test_trace_replay_numpy_ids(self):
        table = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        model = TraceReplayModel(DelayTrace(table))
        ids = np.array([2, 1], dtype=np.int32)
        out = model.sample_round(list(ids), 1, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [5.0, 4.0])
        assert out.dtype == np.float64


# ----------------------------------------------------------------------
# Registry machinery
# ----------------------------------------------------------------------
class TestRegistryMachinery:
    def test_layer_catalogue_complete(self):
        assert set(LAYERS) == set(ENV_REGISTRY)
        assert "exponential" in registered_models("delay")
        assert "transient-dropouts" in registered_models("failure")
        assert "uniform" in registered_models("compute")
        assert "ideal" in registered_models("network")
        assert "fair-share" in registered_models("contention")

    def test_aliases_resolve(self):
        assert resolve_model("delay", "exp").kind == "exponential"
        assert resolve_model("delay", "trace").kind == "trace-replay"
        assert resolve_model("failure", "dropouts").kind == "transient-dropouts"
        assert resolve_model("contention", "shared-link").kind == "fair-share"

    def test_unknown_kind_did_you_mean(self):
        with pytest.raises(ConfigurationError, match="exponential"):
            make_delay_model("exponentail")
        with pytest.raises(ConfigurationError, match="unknown delay model"):
            make_delay_model("nope")

    def test_unknown_parameter_rejected_with_accepted_list(self):
        with pytest.raises(ConfigurationError, match="mean"):
            make_delay_model("exponential", meen=2.0)

    def test_spec_of_registry_built(self):
        model = make_delay_model("pareto", alpha=2.5, scale=0.3)
        assert spec_of(model) == {"kind": "pareto", "alpha": 2.5, "scale": 0.3}

    def test_spec_of_nested_registry_built(self):
        model = make_delay_model(
            "diurnal", base={"kind": "exponential", "mean": 0.5},
            period_steps=10,
        )
        spec = spec_of(model)
        assert spec["kind"] == "diurnal"
        assert spec["base"] == {"kind": "exponential", "mean": 0.5}

    def test_spec_of_direct_built_falls_back_to_class(self):
        spec = spec_of(ParetoDelay(2.0, 1.0))
        assert spec["class"] == "ParetoDelay"

    def test_fingerprint_is_stable_and_parameter_sensitive(self):
        a = model_fingerprint(make_delay_model("exponential", mean=1.0))
        b = model_fingerprint(make_delay_model("exponential", mean=1.0))
        c = model_fingerprint(make_delay_model("exponential", mean=2.0))
        assert a == b
        assert a != c

    def test_delay_model_from_coerces(self):
        assert isinstance(delay_model_from("none"), NoDelay)
        assert isinstance(
            delay_model_from({"kind": "exponential", "mean": 1.0}),
            ExponentialDelay,
        )
        model = ExponentialDelay(2.0)
        assert delay_model_from(model) is model

    def test_delay_model_from_wraps_traces(self):
        trace = DelayTrace(np.array([[0.0, 1.0]]))
        model = delay_model_from(trace)
        assert isinstance(model, TraceReplayModel)
        assert spec_of(model)["kind"] == "trace-replay"

    def test_contention_none_returns_none(self):
        assert make_contention_model("none") is None

    def test_model_spec_problems(self):
        assert model_spec_problems("delay", "exponential") == []
        assert model_spec_problems(
            "delay", {"kind": "exponential", "mean": 1.0}
        ) == []
        problems = model_spec_problems("delay", {"kind": "exponentail"})
        assert problems and "exponential" in problems[0]
        problems = model_spec_problems(
            "delay", {"kind": "exponential", "meen": 1.0}
        )
        assert problems and "meen" in problems[0]
        problems = model_spec_problems(
            "delay",
            {"kind": "mixture",
             "models": [{"kind": "parato", "alpha": 2.0, "scale": 1.0}],
             "weights": [1.0]},
        )
        assert problems and "pareto" in problems[0]

    def test_persistent_requires_exactly_one_delay_spec(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            make_delay_model("persistent", stragglers=[0])
        with pytest.raises(ConfigurationError, match="exactly one"):
            make_delay_model(
                "persistent", stragglers=[0], mean=1.0,
                delay={"kind": "exponential", "mean": 1.0},
            )

    def test_trace_replay_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            make_delay_model("trace-replay")


# ----------------------------------------------------------------------
# DelayTrace persistence
# ----------------------------------------------------------------------
class TestTracePersistence:
    def test_save_load_round_trip(self, tmp_path):
        trace = DelayTrace.record(
            ExponentialDelay(1.0), 4, 3, np.random.default_rng(0)
        )
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = DelayTrace.load(path)
        np.testing.assert_array_equal(trace.delays, loaded.delays)

    def test_registry_trace_replay_from_path(self, tmp_path):
        trace = DelayTrace.record(
            ExponentialDelay(1.0), 4, 3, np.random.default_rng(0)
        )
        path = tmp_path / "trace.json"
        trace.save(path)
        model = make_delay_model("trace-replay", path=str(path))
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            model.sample_round([0, 1, 2, 3], 0, rng), trace.delays[0]
        )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            DelayTrace.load(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# The composite Environment
# ----------------------------------------------------------------------
class TestEnvironment:
    def test_defaults(self):
        env = Environment()
        assert isinstance(env.delay, NoDelay)
        assert env.contention is None
        assert env.compute == ComputeModel()
        assert env.network == NetworkModel()

    def test_sections_round_trip(self):
        sections = {
            "delay": {"kind": "exponential", "mean": 1.5},
            "failure": {"kind": "transient-dropouts", "probability": 0.1},
            "compute": {"kind": "uniform", "base": 0.05, "per_partition": 0.1},
        }
        env = Environment.from_sections(sections)
        rebuilt = Environment.from_sections(env.spec())
        assert rebuilt.fingerprint() == env.fingerprint()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            Environment.from_sections({"dealy": {"kind": "exponential"}})

    def test_fingerprint_parameter_sensitive(self):
        base = Environment(delay={"kind": "exponential", "mean": 1.0})
        same = Environment(delay={"kind": "exponential", "mean": 1.0})
        other = Environment(delay={"kind": "exponential", "mean": 2.0})
        assert base.fingerprint() == same.fingerprint()
        assert base.fingerprint() != other.fingerprint()

    def test_describe_names_every_layer(self):
        text = Environment(
            delay={"kind": "pareto", "alpha": 2.0, "scale": 0.5}
        ).describe()
        for label in ("delay", "failure", "compute", "network", "contention"):
            assert label in text
        assert "pareto" in text

    def test_reset_replays_stateful_models(self):
        env = Environment(delay={
            "kind": "bursty", "burst": {"kind": "exponential", "mean": 4.0},
            "enter_burst": 0.5, "exit_burst": 0.1,
        })
        first = [
            [float(x) for x in env.delay.sample_round(
                WORKERS, step, np.random.default_rng(1))]
            for step in range(STEPS)
        ]
        env.reset()
        replay = [
            [float(x) for x in env.delay.sample_round(
                WORKERS, step, np.random.default_rng(1))]
            for step in range(STEPS)
        ]
        assert first == replay

    def test_simulator_wiring(self):
        env = Environment(delay={"kind": "exponential", "mean": 0.5})
        sim = env.simulator(
            num_workers=4, partitions_per_worker=2,
            rng=np.random.default_rng(0),
        )
        from repro.simulation.policies import WaitForK

        result = sim.run_round(0, WaitForK(2))
        assert len(result.arrivals) == 4

    def test_simulator_equals_direct_cluster(self):
        env = Environment(delay={"kind": "exponential", "mean": 0.5})
        direct = ClusterSimulator(
            num_workers=4, partitions_per_worker=2,
            delay_model=ExponentialDelay(0.5),
            rng=np.random.default_rng(0),
        )
        via_env = env.simulator(
            num_workers=4, partitions_per_worker=2,
            rng=np.random.default_rng(0),
        )
        from repro.simulation.policies import WaitForK

        for step in range(3):
            a = direct.run_round(step, WaitForK(2))
            b = via_env.run_round(step, WaitForK(2))
            assert a.arrivals == b.arrivals

    def test_environment_excludes_individual_model_args(self):
        env = Environment()
        with pytest.raises(ConfigurationError, match="delay_model"):
            ClusterSimulator(
                num_workers=2, partitions_per_worker=1,
                environment=env, delay_model=NoDelay(),
                rng=np.random.default_rng(0),
            )

"""Tests for :mod:`repro.env` — the unified environment layer.

Three layers of pinning, mirroring ``tests/test_scheme.py``:

* **Golden equivalence** — ``tests/golden/environments.json`` was
  recorded at the commit introducing ``repro.env`` (see
  ``tests/golden/record_environment_goldens.py``); every family's
  section must reproduce its fingerprint, and the model the registry
  builds from it its sampled stream, bit for bit.
* **Registry/Environment unit tests** — lookup, aliases, did-you-mean
  errors, parameter validation, canonical specs of section data, the
  composite :class:`~repro.env.Environment` (reset / simulator
  wiring), and trace save/load.
* **Hypothesis properties** — registry-built models consume the RNG
  exactly as direct construction does (identical streams *and*
  identical generator end-state), and ``sample_round`` is bit-for-bit
  the per-worker scalar loop for every family, nested composites
  included.
"""

import copy
import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env import (
    ENV_REGISTRY,
    Environment,
    LAYERS,
    make_model,
    model_fingerprint,
    model_spec,
    model_spec_problems,
    model_from,
    registered_models,
    resolve_model,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.cluster import ClusterSimulator, ComputeModel
from repro.simulation.contention import ContendedUploadModel
from repro.simulation.network import NetworkModel
from repro.straggler.failures import (
    CompositeFailures,
    NoFailures,
    PermanentCrashes,
    TransientDropouts,
)
from repro.straggler.models import (
    BernoulliStraggler,
    BurstyDelay,
    DelayModel,
    DiurnalDelay,
    ExponentialDelay,
    MixtureDelay,
    NoDelay,
    ParetoDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
)
from repro.straggler import traces
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
        section = {"kind": case["kind"], **case["params"]}
        assert model_fingerprint(case["layer"], section) == case["fingerprint"]

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
        via_registry = make_model("delay", kind, **copy.deepcopy(params))
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
        batched = make_model("delay", kind, **copy.deepcopy(params))
        looped = make_model("delay", kind, **copy.deepcopy(params))
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
        via_registry = make_model("delay", "exponential", **kwargs)
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
            a = make_model("delay", kind, **params).sample_round(
                WORKERS, 0, rng_a
            )
            b = np.array([direct.sample(w, 0, rng_b) for w in WORKERS])
            np.testing.assert_array_equal(a, b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_failure_models_equivalent(self):
        pairs = [
            (make_model("failure", "permanent-crashes",
                                crashed_workers=[2], at_step=1),
             PermanentCrashes([2], at_step=1)),
            (make_model("failure", "transient-dropouts", probability=0.2),
             TransientDropouts(0.2)),
            (make_model(
                "failure", "composite",
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
        assert make_model(
            "compute", "uniform", base=0.05, per_partition=0.1
        ) == ComputeModel(0.05, 0.1)
        assert make_model(
            "network", "uniform", latency=0.002, bandwidth=1e9
        ) == NetworkModel(latency=0.002, bandwidth=1e9)
        ideal = make_model("network", "ideal")
        assert ideal.latency == 0.0 and ideal.bandwidth == float("inf")


# ----------------------------------------------------------------------
# sample_round contracts
# ----------------------------------------------------------------------
class _Constant(DelayModel):
    """A delay model that always returns ``value`` and draws nothing."""

    def __init__(self, value: float):
        self._value = value

    def sample(self, worker, step, rng):
        return self._value


class _FixedUniform:
    """An RNG stand-in whose ``random()`` returns one given uniform."""

    def __init__(self, u: float):
        self._u = u

    def random(self):
        return self._u


class TestSampleRound:
    def test_empty_worker_list(self):
        for kind in ("none", "exponential", "pareto"):
            model = make_model(
                "delay", kind,
                **({"alpha": 2.0, "scale": 1.0} if kind == "pareto" else {}),
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

    @pytest.mark.parametrize(
        "weights",
        [[0.7, 0.3], [0.8, 0.2], [0.0, 1.0, 0.0, 2.0], [1.0, 0.0],
         [0.1] * 10, [3.0, 1e-12, 5.0]],
    )
    def test_mixture_component_is_the_searchsorted_index(self, weights):
        # The component a uniform picks is numpy's right-searchsorted
        # index into the normalised cdf, including 0.0, every cdf entry
        # and its neighbours.
        cdf = (np.asarray(weights, dtype=float) / sum(weights)).cumsum()
        cdf /= cdf[-1]
        uniforms = [0.0, *np.random.default_rng(5).random(200).tolist()]
        for entry in cdf.tolist():
            uniforms += [entry, np.nextafter(entry, 0.0),
                         np.nextafter(entry, 1.0)]
        uniforms = [u for u in uniforms if u < 1.0]
        model = MixtureDelay(
            [_Constant(float(k)) for k in range(len(weights))], weights
        )
        for u in uniforms:
            expected = int(cdf.searchsorted(u, side="right"))
            assert model.sample(0, 0, _FixedUniform(u)) == expected, u

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
            make_model("delay", "exponentail")
        with pytest.raises(ConfigurationError, match="unknown delay model"):
            make_model("delay", "nope")

    def test_unknown_parameter_rejected_with_accepted_list(self):
        with pytest.raises(ConfigurationError, match="mean"):
            make_model("delay", "exponential", meen=2.0)

    def test_spec_of_registry_built(self):
        """The spec of the section the registry builds from."""
        section = {"kind": "pareto", "alpha": 2.5, "scale": 0.3}
        assert model_spec("delay", section) == section

    def test_spec_of_nested_registry_built(self):
        spec = model_spec("delay", {
            "kind": "diurnal", "base": {"kind": "exponential", "mean": 0.5},
            "period_steps": 10,
        })
        assert spec["kind"] == "diurnal"
        assert spec["base"] == {"kind": "exponential", "mean": 0.5}

    def test_model_spec_canonical_kind_sorted_params_nested_as_given(self):
        spec = model_spec("delay", {
            "stragglers": [0], "kind": "persistent",
            "delay": {"mean": 2.0, "kind": "exp"},
        })
        assert list(spec) == ["kind", "delay", "stragglers"]
        assert spec["delay"] == {"kind": "exp", "mean": 2.0}
        assert model_spec("delay", "exp") == {"kind": "exponential"}

    @pytest.mark.parametrize("value", [
        ParetoDelay(2.0, 1.0),
        {"kind": "bernoulli", "probability": 0.5,
         "delay": ExponentialDelay(1.0)},
        3,
        {"kind": "exp", "meen": 1.0},
        {"kind": "persistent", "stragglers": [0],
         "delay": {"kind": "exp", "meen": 1.0}},
    ], ids=["built", "nested-built", "int", "unknown-param",
            "nested-unknown-param"])
    def test_model_spec_refuses_anything_but_section_data(self, value):
        with pytest.raises(ConfigurationError):
            model_fingerprint("delay", value)

    def test_fingerprint_is_stable_and_parameter_sensitive(self):
        a = model_fingerprint("delay", {"kind": "exponential", "mean": 1.0})
        b = model_fingerprint("delay", {"kind": "exp", "mean": 1.0})
        c = model_fingerprint("delay", {"kind": "exponential", "mean": 2.0})
        assert a == b
        assert a != c

    def test_model_from_coerces_delay_sections(self):
        assert isinstance(model_from("delay", "none"), NoDelay)
        assert isinstance(
            model_from("delay", {"kind": "exponential", "mean": 1.0}),
            ExponentialDelay,
        )
        model = ExponentialDelay(2.0)
        assert model_from("delay", model) is model

    def test_model_from_wraps_delay_traces(self):
        trace = DelayTrace(np.array([[0.0, 1.0]]))
        model = model_from("delay", trace)
        assert isinstance(model, TraceReplayModel)
        section = {"kind": "trace", "delays": trace.delays}
        assert model_spec("delay", section) == {
            "kind": "trace-replay", "delays": [[0.0, 1.0]],
        }

    def test_contention_none_returns_none(self):
        assert make_model("contention", "none") is None

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
            make_model("delay", "persistent", stragglers=[0])
        with pytest.raises(ConfigurationError, match="exactly one"):
            make_model(
                "delay", "persistent", stragglers=[0], mean=1.0,
                delay={"kind": "exponential", "mean": 1.0},
            )

    def test_trace_replay_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            make_model("delay", "trace-replay")


# ----------------------------------------------------------------------
# The table's rows: classes, and nested sub-models built once
# ----------------------------------------------------------------------
#: (layer, kind, class) of every row whose build is the model class.
CLASS_ROWS = [
    ("delay", "none", NoDelay),
    ("delay", "exponential", ExponentialDelay),
    ("delay", "shifted-exponential", ShiftedExponentialDelay),
    ("delay", "pareto", ParetoDelay),
    ("delay", "bernoulli", BernoulliStraggler),
    ("delay", "diurnal", DiurnalDelay),
    ("delay", "bursty", BurstyDelay),
    ("delay", "mixture", MixtureDelay),
    ("failure", "none", NoFailures),
    ("failure", "permanent-crashes", PermanentCrashes),
    ("failure", "transient-dropouts", TransientDropouts),
    ("failure", "composite", CompositeFailures),
    ("compute", "uniform", ComputeModel),
    ("network", "uniform", NetworkModel),
    ("contention", "fair-share", ContendedUploadModel),
]

#: (layer, kind, other params, nested param, wraps the sub-model in a
#: list with this second entry or not): one row per composite family's
#: nested parameter.
COMPOSITE_ROWS = [
    ("delay", "bernoulli", {"probability": 0.4}, "delay", None),
    ("delay", "persistent", {"stragglers": [0, 3]}, "delay", None),
    ("delay", "persistent", {"stragglers": [0, 3], "mean": 2.0},
     "background", None),
    ("delay", "diurnal", {"period_steps": 3}, "base", None),
    ("delay", "bursty", {"enter_burst": 0.5}, "burst", None),
    ("delay", "mixture", {"weights": [0.6, 0.4]}, "models",
     {"kind": "pareto", "alpha": 2.0, "scale": 1.0}),
    ("failure", "composite", {}, "models",
     {"kind": "transient-dropouts", "probability": 0.3}),
]

#: layer → one sub-model three ways: kind string, mapping, built model.
SUB_MODEL_FORMS = {
    "delay": ("exponential", {"kind": "exponential", "mean": 1.0},
              ExponentialDelay(1.0)),
    "failure": ("none", {"kind": "none"}, NoFailures()),
}


def _stream(layer, model, seed=11):
    """What ``model`` draws over STEPS rounds of WORKERS."""
    rng = np.random.default_rng(seed)
    if layer == "delay":
        return [
            [float(x) for x in model.sample_round(WORKERS, step, rng)]
            for step in range(STEPS)
        ]
    return [
        [model.is_alive(w, step, rng) for w in WORKERS]
        for step in range(STEPS)
    ]


class TestTableRows:
    @pytest.mark.parametrize(
        "layer, kind, params, name, second", COMPOSITE_ROWS,
        ids=[f"{row[1]}.{row[3]}" for row in COMPOSITE_ROWS],
    )
    def test_nested_forms_draw_the_same_stream(
        self, layer, kind, params, name, second
    ):
        streams = []
        for form in SUB_MODEL_FORMS[layer]:
            sub = copy.deepcopy(form)
            value = sub if second is None else [sub, second]
            model = make_model(layer, kind, **params, **{name: value})
            streams.append(_stream(layer, model))
        assert streams[0] == streams[1] == streams[2]

    def test_bernoulli_nests_a_recorded_trace(self):
        trace = DelayTrace.record(
            ExponentialDelay(1.0), len(WORKERS), STEPS,
            np.random.default_rng(3),
        )
        streams = [
            _stream("delay", make_model(
                "delay", "bernoulli", probability=0.5, delay=sub,
            ))
            for sub in (
                trace,
                TraceReplayModel(trace),
                {"kind": "trace-replay", "delays": trace.delays.tolist()},
            )
        ]
        assert streams[0] == streams[1] == streams[2]

    @pytest.mark.parametrize("kind, params, message", [
        ("bernoulli", {"probability": 0.5, "delay": ["none"]},
         "delay model 'bernoulli' takes one sub-model spec for 'delay', "
         "got ['none']"),
        ("mixture", {"models": "none", "weights": [1.0]},
         "delay model 'mixture' takes a list of sub-model specs for "
         "'models', got 'none'"),
    ], ids=["list-for-one", "one-for-list"])
    def test_nested_shape_refused_at_admission_and_construction(
        self, kind, params, message
    ):
        problems = model_spec_problems(
            "delay", {"kind": kind, **params}, section="delay"
        )
        assert problems == [f"delay: {message}"]
        with pytest.raises(ConfigurationError) as exc:
            make_model("delay", kind, **params)
        assert str(exc.value) == message


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
        model = make_model("delay", "trace-replay", path=str(path))
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(
            model.sample_round([0, 1, 2, 3], 0, rng), trace.delays[0]
        )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            DelayTrace.load(tmp_path / "missing.json")

    def test_load_refuses_a_fifo_without_opening_it(self, tmp_path):
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        with pytest.raises(ConfigurationError, match="not a regular file"):
            make_model("delay", "trace-replay", path=str(fifo))

    def test_load_reads_at_most_the_bound(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.json"
        DelayTrace(np.ones((4, 3))).save(path)
        monkeypatch.setattr(traces, "MAX_TRACE_BYTES", 16)
        with pytest.raises(ConfigurationError, match="larger than 16 bytes"):
            DelayTrace.load(path)


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

    def test_model_from_reads_the_layer_table(self):
        # A built model of the layer passes through as it is.
        model = ExponentialDelay(1.0)
        assert model_from("delay", model) is model
        # An absent layer is its neutral model.
        assert isinstance(model_from("delay", None), NoDelay)
        assert model_from("compute", None) == ComputeModel()
        assert model_from("network", None) == NetworkModel()
        assert model_from("contention", None) is None
        # A kind-less mapping is uniform on compute/network only.
        assert model_from("compute", {"base": 0.2}) == ComputeModel(base=0.2)
        assert model_from("network", {"latency": 0.0}) == NetworkModel(
            latency=0.0
        )
        for layer in ("delay", "failure", "contention"):
            with pytest.raises(ConfigurationError, match="needs a 'kind'"):
                model_from(layer, {"probability": 0.5})
        # A model of another layer is not a model of this one.
        with pytest.raises(ConfigurationError, match="network model"):
            model_from("network", ComputeModel())
        with pytest.raises(ConfigurationError, match="unknown environment"):
            model_from("dealy", "none")

    def test_uniform_families_are_the_model_classes(self):
        """The table states no defaults of its own for a family whose
        constructor takes the spec's parameters: its row is the class."""
        for layer, kind, cls in CLASS_ROWS:
            assert ENV_REGISTRY[layer][kind].build is cls, (layer, kind)
        assert make_model("compute", "uniform") == ComputeModel()
        assert make_model("network", "uniform") == NetworkModel()
        assert model_spec("compute", {"base": 0.2}) == {
            "kind": "uniform", "base": 0.2,
        }

    def test_cluster_simulator_requires_an_environment(self):
        with pytest.raises(TypeError, match="environment"):
            ClusterSimulator(2, 1, rng=np.random.default_rng(0))

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
        """Directly built models in an Environment run the same rounds
        as the registry-built ones."""
        env = Environment(delay={"kind": "exponential", "mean": 0.5})
        direct = ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            environment=Environment(delay=ExponentialDelay(0.5)),
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

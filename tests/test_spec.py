"""Serialization and validation of the declarative ExperimentSpec."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
import textwrap

import numpy as np
import pytest

from repro.engine import EnginePlan, ExperimentSpec, run_spec
from repro.engine.spec import make_strategy
from repro.exceptions import ConfigurationError, TrainingError
from repro.simulation import WaitForK

from conftest import BAD_ENVIRONMENT_VALUES
from time_origins import assert_time_origins, trace_every_engine

SPECS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"


def _spec(**over):
    base = dict(
        name="spec-test",
        scheme="is-gc-cr",
        num_workers=4,
        partitions_per_worker=2,
        wait_for=2,
        max_steps=5,
        seed=0,
    )
    base.update(over)
    return ExperimentSpec(**base)


class TestValidation:
    def test_defaults_build(self):
        spec = _spec()
        assert spec.backend == "flat"
        assert spec.rule == "sync"
        assert spec.dataset["kind"] == "classification"

    @pytest.mark.parametrize("field, value", [
        ("num_workers", 0),
        ("num_workers", -3),
        ("max_steps", 0),
    ])
    def test_rejects_non_positive(self, field, value):
        with pytest.raises(ConfigurationError, match="positive"):
            _spec(**{field: value})

    @pytest.mark.parametrize("seed", [-1, -2, -3, 1.5, True, "7"])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        # Was admitted, then died inside build_engine with NumPy's raw
        # "expected non-negative integer" (seed + 2 seeds the streams).
        with pytest.raises(ConfigurationError, match="^seed must be"):
            _spec(seed=seed)
        with pytest.raises(ConfigurationError, match="^seed must be"):
            ExperimentSpec.from_dict({**_spec().to_dict(), "seed": seed})

    @pytest.mark.parametrize("field", [
        "num_workers", "partitions_per_worker", "wait_for", "max_steps",
        "smoothing_window",
    ])
    @pytest.mark.parametrize("value", [True, 2.0, "4"])
    def test_rejects_integer_field_that_is_not_an_int(self, field, value):
        # A bool ran silently as 1, a float ran under a fingerprint of
        # its own (or died inside the engine on a slice), a string
        # raised a bare TypeError.
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            _spec(**{field: value})
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            ExperimentSpec.from_dict({**_spec().to_dict(), field: value})

    @pytest.mark.parametrize("scheme", ["is-gc-cr", "sync-sgd", "is-gc"])
    def test_rejects_scheme_params_that_are_not_a_mapping(self, scheme):
        # Was admitted for every scheme, then died inside build_engine
        # with a bare "cannot convert dictionary update sequence".
        with pytest.raises(
            ConfigurationError,
            match=r"^scheme_params must be a mapping, got \[1, 2\]$",
        ):
            _spec(scheme=scheme, scheme_params=[1, 2])

    @pytest.mark.parametrize("batch_size", [0, -4, 2.5, True, "16"])
    def test_rejects_batch_size_that_is_not_a_positive_int(self, batch_size):
        dataset = {**_spec().dataset, "batch_size": batch_size}
        with pytest.raises(
            ConfigurationError, match=r"^dataset\.batch_size must be"
        ):
            _spec(dataset=dataset)
        with pytest.raises(
            ConfigurationError, match=r"^dataset\.batch_size must be"
        ):
            ExperimentSpec.from_dict({**_spec().to_dict(), "dataset": dataset})

    @pytest.mark.parametrize("value", [
        "x", -1.0, 0.0, 0, float("nan"), float("inf"), True, None,
    ])
    def test_rejects_learning_rate_that_is_not_a_positive_real(self, value):
        # Was admitted, then failed inside run_spec (a bool ran as 1.0).
        message = r"^learning_rate must be a positive real number, got "
        with pytest.raises(ConfigurationError, match=message):
            _spec(learning_rate=value)
        with pytest.raises(ConfigurationError, match=message):
            ExperimentSpec.from_dict(
                {**_spec().to_dict(), "learning_rate": value}
            )

    @pytest.mark.parametrize("value", [
        "x", "0.5", float("nan"), float("-inf"), True, [0.5],
    ])
    def test_rejects_loss_threshold_that_is_not_null_or_real(self, value):
        # A string failed at the first comparison; a bool or NaN ran.
        message = r"^loss_threshold must be null or a real number, got "
        with pytest.raises(ConfigurationError, match=message):
            _spec(loss_threshold=value)
        with pytest.raises(ConfigurationError, match=message):
            ExperimentSpec.from_dict(
                {**_spec().to_dict(), "loss_threshold": value}
            )

    @pytest.mark.parametrize("fields, message", [
        ({"learning_rate": 10**400},
         "learning_rate must be a positive real number"),
        ({"loss_threshold": 10**400},
         "loss_threshold must be null or a real number"),
        ({"rule": "adaptive", "rule_params": {"partition_bytes": 10**400}},
         "rule_params.partition_bytes must be a real number >= 0"),
    ], ids=["learning-rate", "loss-threshold", "partition-bytes"])
    def test_rejects_an_int_past_the_float_range(self, fields, message):
        # JSON reads such an int exactly; the number check overflowed
        # on it instead of refusing it.
        with pytest.raises(ConfigurationError, match=f"^{message}, got 1000"):
            ExperimentSpec.from_dict({**_spec().to_dict(), **fields})

    @pytest.mark.parametrize("learning_rate, loss_threshold", [
        (0.3, None), (1, 0), (1e-4, -2.5), (0.5, 3),
    ])
    def test_admits_real_learning_rate_and_loss_threshold(
        self, learning_rate, loss_threshold
    ):
        spec = _spec(
            learning_rate=learning_rate, loss_threshold=loss_threshold
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_rule(self):
        with pytest.raises(ConfigurationError, match="unknown rule"):
            _spec(rule="teleport")

    def test_unknown_scheme_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown scheme 'quantum'"):
            _spec(scheme="quantum")


_HR = {"c1": 1, "c2": 2, "num_groups": 3}


class TestAdmission:
    """Constructing a spec is its one admission check: the paper's
    constraints on n, c and w, placement feasibility and the
    environment sections are all refused here, before anything runs."""

    @pytest.mark.parametrize("fields, needles", [
        ({"num_workers": np.int64(4)}, ["num_workers must be"]),
        ({"scheme": "sync-sgd", "num_workers": 0}, ["num_workers"]),
        ({"scheme": "sync-sgd", "wait_for": 9}, ["1 <= w <= n = 4"]),
        ({"scheme": "is-sgd", "partitions_per_worker": 6}, ["1 <= c <= n"]),
        ({"partitions_per_worker": 6}, ["1 <= c <= n"]),
        ({"partitions_per_worker": 4}, ["1 <= c < n", "Theorem 1"]),
        ({"wait_for": 9}, ["1 <= w <= n"]),
        ({"wait_for": None}, ["set wait_for"]),
        ({"rule": "adaptive", "scheme": "sync-sgd", "wait_for": None},
         ["rule 'adaptive'", "set wait_for"]),
        ({"scheme": "sync-sgd", "wait_for": None, "rule": "async",
          "failure": {"kind": "transient-dropouts", "probability": 0.1}},
         ["does not simulate the failure spec section"]),
        ({"scheme": "is-gc-fr", "partitions_per_worker": 3,
          "num_workers": 8}, ["c | n"]),
        ({"scheme": "is-gc", "partitions_per_worker": 4}, ["Theorem 1"]),
        ({"scheme": "is-gc", "partitions_per_worker": 3, "num_workers": 8,
          "scheme_params": {"placement": "fr"}}, ["c | n"]),
        ({"scheme": "is-gc", "scheme_params": {"placement": "cyclc"}},
         ["did you mean 'cyclic'", "registered families"]),
        ({"scheme": "is-gc-hr"}, ["num_groups"]),
        ({"scheme": "is-gc-hr", "num_workers": 8, "partitions_per_worker": 3,
          "scheme_params": _HR}, ["g | n"]),
        ({"scheme": "is-gc-hr", "num_workers": 12,
          "partitions_per_worker": 3,
          "scheme_params": {"c1": 1, "c2": 2, "num_groups": 2}},
         ["Theorem 6"]),
        ({"scheme": "is-gc-hr", "num_workers": 12,
          "partitions_per_worker": 2, "scheme_params": _HR}, ["c1 + c2"]),
        ({"scheme": "gc", "scheme_params": [1, 2]},
         ["scheme_params must be a mapping, got [1, 2]"]),
        ({"scheme": "is-sgd", "scheme_params": [1, 2]},
         ["scheme_params must be a mapping, got [1, 2]"]),
        ({"scheme": "is-gc-hr", "scheme_params": [1, 2]},
         ["scheme_params must be a mapping, got [1, 2]"]),
        ({"scheme": "is-gc-cr", "scheme_params": [1, 2]},
         ["scheme_params must be a mapping, got [1, 2]"]),
        ({"scheme": "sync-sgd", "scheme_params": [1, 2]},
         ["scheme_params must be a mapping, got [1, 2]"]),
        ({"delay": {"kind": "exponential", "meen": 1.0}},
         ["delay: delay model 'exponential' got unknown parameter 'meen'"]),
    ], ids=[
        "num-workers-np-int64", "num-workers-0", "sync-sgd-wait-for-9",
        "is-sgd-c-6", "is-gc-cr-c-6", "cr-c-equals-n",
        "is-gc-cr-wait-for-9", "is-gc-cr-without-wait-for",
        "adaptive-without-wait-for", "async-with-failure",
        "fr-c-not-dividing-n", "is-gc-defaults-to-cr", "is-gc-routes-to-fr",
        "is-gc-unknown-family", "hr-missing-params", "hr-g-not-dividing-n",
        "hr-theorem-6", "hr-c-not-c1-plus-c2", "scheme-params-list-gc",
        "scheme-params-list-is-sgd", "scheme-params-list-is-gc-hr",
        "scheme-params-list-is-gc-cr", "scheme-params-list-sync-sgd",
        "delay-unknown-parameter",
    ])
    def test_refused_at_construction(self, fields, needles):
        payload = {**_spec().to_dict(), **fields}
        for build in (lambda: ExperimentSpec(**payload),
                      lambda: ExperimentSpec.from_dict(payload)):
            with pytest.raises(ConfigurationError) as exc:
                build()
            for needle in needles:
                assert needle in str(exc.value)

    @pytest.mark.parametrize("fields", [
        {"num_workers": 8, "wait_for": 4},
        {"scheme": "is-gc"},
        {"scheme": "is-gc", "num_workers": 12, "partitions_per_worker": 3,
         "scheme_params": {"placement": "hr", **_HR}},
        {"scheme": "is-gc-hr", "num_workers": 12, "partitions_per_worker": 3,
         "wait_for": 6, "scheme_params": _HR},
        # HR derives c = c1 + c2: the field's default 1 means "not given".
        {"scheme": "is-gc-hr", "num_workers": 12, "partitions_per_worker": 1,
         "wait_for": 6, "scheme_params": _HR},
        {"scheme": "sync-sgd", "wait_for": None},
    ], ids=[
        "cr", "is-gc", "is-gc-hr-family", "hr", "hr-default-c",
        "sync-sgd-without-wait-for",
    ])
    def test_admitted(self, fields):
        spec = _spec(**fields)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    # Each of these used to be admitted and then fail inside run_spec
    # (a served job ended failed instead of rejected).
    @pytest.mark.parametrize("params, message", [
        ({"placement": "hetero", "assignment": [0, 0, 1, 2]},
         "assignment must be a permutation of worker indices 0..3, "
         "got [0, 0, 1, 2]"),
        ({"placement": "hetero", "assignment": [1, 0, 3, 2],
          "base": "cyclc"},
         "unknown placement family 'cyclc' — did you mean 'cyclic'?"),
        ({"placement": "hetero", "assignment": [1, 0, 3, 2], "bogus": 1},
         "hetero's base family 'cr' takes no parameter 'bogus'; "
         "accepted: assignment, base"),
        ({"placement": "explicit", "rows": [[0, 9], [1, 2], [2, 3], [3, 0]]},
         "worker 0 references partition 9 outside [0, 4)"),
        ({"placement": "explicit", "rows": [[0, 1], [1, 0]]},
         "explicit table has 2 workers but num_workers=4 was given"),
        ({"placement": "explicit"},
         "explicit placement needs exactly one of rows= "
         "(row-per-worker list) or assignments="),
    ], ids=[
        "hetero-not-a-permutation", "hetero-unknown-base",
        "hetero-stray-param", "explicit-partition-out-of-range",
        "explicit-too-few-rows", "explicit-no-table",
    ])
    def test_bad_placement_table_refused(self, params, message):
        payload = {
            **_spec(scheme="is-gc").to_dict(), "scheme_params": params,
        }
        for build in (lambda: ExperimentSpec(**payload),
                      lambda: ExperimentSpec.from_dict(payload)):
            with pytest.raises(ConfigurationError) as exc:
                build()
            assert message in str(exc.value)

    @pytest.mark.parametrize("params", [
        {"placement": "hetero", "assignment": [1, 0, 3, 2], "seed": 3},
        {"placement": "hetero", "assignment": [3, 2, 1, 0], "base": "fr"},
        {"placement": "explicit",
         "assignments": {"0": [0, 1], "1": [1, 2], "2": [2, 3],
                         "3": [3, 0]}},
    ], ids=["hetero-shared-seed", "hetero-fr-base", "explicit-assignments"])
    def test_placement_tables_admitted_and_run(self, params):
        spec = _spec(scheme="is-gc", scheme_params=params)
        assert run_spec(spec).num_steps == 5

    def test_every_problem_is_named_in_one_error(self):
        with pytest.raises(ConfigurationError) as exc:
            _spec(partitions_per_worker=4, wait_for=9)
        message = str(exc.value)
        assert message.startswith("CR placement requires 1 <= c < n")
        assert "; wait_for must satisfy 1 <= w <= n = 4" in message


class TestSpecFiles:
    def test_shipped_specs_load_and_plan(self):
        paths = sorted(SPECS.glob("*.json"))
        assert len(paths) == 4
        for path in paths:
            spec = ExperimentSpec.from_file(path)
            assert EnginePlan(spec).spec is spec

    def test_run_accepts_shipped_specs(self, capsys, monkeypatch):
        from repro import cli

        engines = trace_every_engine(monkeypatch)
        for path in sorted(SPECS.glob("*.json")):
            assert cli.main(["run", str(path)]) == 0, path
            assert capsys.readouterr().err == ""
        assert len(engines) == 4
        for engine in engines:
            assert_time_origins(engine)

    def test_run_refuses_an_infeasible_file(self, tmp_path, capsys):
        from repro import cli

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "scheme": "is-gc-cr", "num_workers": 4,
            "partitions_per_worker": 4, "wait_for": 2,
        }))
        assert cli.main(["run", str(path)]) == 2
        assert "1 <= c < n" in capsys.readouterr().err


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = _spec(learning_rate=0.1)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = _spec().to_dict()
        data["gpu_count"] = 8
        with pytest.raises(ConfigurationError, match="gpu_count"):
            ExperimentSpec.from_dict(data)

    def test_from_dict_names_missing_required_fields(self):
        # Was a bare ``TypeError: __init__() missing 1 required
        # positional argument`` — which escaped the mailbox's handler.
        data = _spec().to_dict()
        del data["name"]
        with pytest.raises(
            ConfigurationError, match="^missing spec field: name$"
        ):
            ExperimentSpec.from_dict(data)
        del data["num_workers"]
        with pytest.raises(
            ConfigurationError, match="missing spec fields: name, num_workers"
        ):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("payload", [5, None, "is-gc-cr", [1, 2]])
    def test_from_dict_rejects_non_mappings(self, payload):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            ExperimentSpec.from_dict(payload)

    def test_json_file_round_trip(self, tmp_path):
        spec = _spec(delay={"kind": "exponential", "mean": 0.25})
        path = spec.to_file(tmp_path / "spec.json")
        assert ExperimentSpec.from_file(path) == spec

    def test_json_round_trip_preserves_trajectory(self, tmp_path):
        """Serialisation must not perturb the run: same spec on disk,
        same bits out."""
        spec = _spec()
        path = spec.to_file(tmp_path / "spec.json")
        direct = run_spec(spec)
        loaded = run_spec(str(path))
        assert direct.loss_curve == loaded.loss_curve
        assert direct.total_sim_time == loaded.total_sim_time

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib is Python >= 3.11"
    )
    def test_toml_load(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(textwrap.dedent("""\
            name = "toml-spec"
            scheme = "is-gc-fr"
            num_workers = 4
            partitions_per_worker = 2
            wait_for = 2
            max_steps = 3
            seed = 7

            [delay]
            kind = "exponential"
            mean = 0.5
        """))
        spec = ExperimentSpec.from_file(path)
        assert spec.name == "toml-spec"
        assert spec.scheme == "is-gc-fr"
        assert spec.delay == {"kind": "exponential", "mean": 0.5}

    @pytest.mark.skipif(
        sys.version_info >= (3, 11), reason="tomllib is Python >= 3.11"
    )
    def test_toml_needs_python_311(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text('name = "toml-spec"\n')
        with pytest.raises(
            ConfigurationError, match="TOML specs need Python >= 3.11"
        ):
            ExperimentSpec.from_file(path)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(ConfigurationError, match=".yaml"):
            ExperimentSpec.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            ExperimentSpec.from_file(tmp_path / "ghost.json")

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigurationError, match="mapping"):
            ExperimentSpec.from_file(path)


class TestEnvironmentSections:
    def test_env_sections_round_trip(self, tmp_path):
        spec = _spec(
            delay={"kind": "pareto", "alpha": 2.5, "scale": 0.3},
            failure={"kind": "transient-dropouts", "probability": 0.05},
            compute={"kind": "uniform", "base": 0.05, "per_partition": 0.1},
            network={"kind": "uniform", "latency": 0.002, "bandwidth": 1e9},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        path = spec.to_file(tmp_path / "spec.json")
        assert ExperimentSpec.from_file(path) == spec

    def test_contention_section_round_trip(self):
        spec = _spec(
            contention={"kind": "fair-share", "capacity_bytes_per_s": 1e9},
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_failure_section_changes_trajectory(self):
        healthy = run_spec(_spec(seed=3))
        crashy = run_spec(_spec(
            seed=3,
            failure={"kind": "permanent-crashes", "crashed_workers": [0]},
        ))
        assert healthy.loss_curve != crashy.loss_curve

    @pytest.mark.parametrize(
        "fields, message",
        [case[1:] for case in BAD_ENVIRONMENT_VALUES],
        ids=[case[0] for case in BAD_ENVIRONMENT_VALUES],
    )
    def test_bad_environment_value_refused_at_admission(
        self, fields, message
    ):
        # Each of these used to be admitted and then fail (or, NaN, run
        # to a NaN clock) only when its engine was built.
        payload = {**_spec().to_dict(), **fields}
        for build in (lambda: ExperimentSpec(**payload),
                      lambda: ExperimentSpec.from_dict(payload)):
            with pytest.raises(ConfigurationError) as exc:
                build()
            assert str(exc.value).startswith(message), exc.value

    def test_sub_models_nested_past_the_stack_are_refused(self):
        # Building recurses once per level; a hostile payload's depth
        # is refused, not raised out of admission as a RecursionError.
        delay = {"kind": "exponential", "mean": 1.0}
        for _ in range(sys.getrecursionlimit()):
            delay = {"kind": "bernoulli", "probability": 0.5, "delay": delay}
        with pytest.raises(ConfigurationError, match=(
            "^delay: sub-models nested too deeply to build$"
        )):
            _spec(delay=delay)

    def test_unknown_env_kind_refused_at_admission(self):
        with pytest.raises(ConfigurationError, match="transient-dropouts"):
            _spec(failure={"kind": "transiant-dropouts", "probability": 0.1})

    @pytest.mark.parametrize("backend", ["async-arrivals"])
    def test_non_flat_backends_reject_flat_only_sections(self, backend):
        with pytest.raises(ConfigurationError, match="flat or actor backend"):
            _spec(
                backend=backend,
                failure={"kind": "transient-dropouts", "probability": 0.1},
                rule="async", wait_for=None, scheme="sync-sgd",
            )

    def test_actor_backend_runs_failure_and_contention_sections(self):
        """The actor backend times its rounds with the flat backend's
        ClusterSimulator, so it simulates every environment section."""
        healthy = run_spec(_spec(seed=3, backend="actor"))
        troubled = run_spec(_spec(
            seed=3,
            backend="actor",
            failure={"kind": "permanent-crashes", "crashed_workers": [0]},
            contention={"kind": "fair-share", "capacity_bytes_per_s": 1e3},
        ))
        assert troubled.num_steps == healthy.num_steps == 5
        assert troubled.loss_curve != healthy.loss_curve
        assert troubled.total_sim_time != healthy.total_sim_time

    @pytest.mark.parametrize("rule, backend", [
        ("async", "actor"),
        ("async", "async-arrival"),
        ("sync", "async-arrivals"),
        ("local-update", "async-arrivals"),
    ])
    def test_backend_must_suit_the_rule(self, rule, backend):
        with pytest.raises(ConfigurationError, match="cannot run rule"):
            _spec(scheme="sync-sgd", wait_for=None, rule=rule,
                  backend=backend)

    @pytest.mark.parametrize("backend", ["flat", "async-arrivals"])
    def test_async_rule_takes_flat_or_async_arrivals(self, backend):
        spec = _spec(scheme="sync-sgd", wait_for=None, rule="async",
                     backend=backend)
        assert run_spec(spec).num_updates == 5

    def test_persistent_legacy_sugar_still_builds(self):
        """The pre-registry shorthand (stragglers + mean) keeps working
        through the spec path."""
        summary = run_spec(_spec(delay={
            "kind": "persistent", "stragglers": [0],
            "mean": 2.0, "background_mean": 0.1,
        }))
        assert summary.num_steps == 5


class TestRules:
    @pytest.mark.parametrize("rule, params", [
        ("sync", {}),
        ("local-update", {"local_steps": 2, "local_lr": 0.05}),
        ("adaptive", {"review_every": 2}),
    ])
    def test_each_sync_rule_runs(self, rule, params):
        summary = run_spec(_spec(rule=rule, rule_params=params))
        assert summary.num_steps == 5

    def test_misspelt_rule_param_rejected_with_hint(self):
        with pytest.raises(ConfigurationError) as exc:
            _spec(rule="local-update", rule_params={"local_stepz": 3})
        message = str(exc.value)
        assert (
            "rule_params: rule 'local-update' got unknown parameter "
            "'local_stepz' — did you mean 'local_steps' or 'local_lr'? "
            "(accepted: local_steps, local_lr)"
        ) in message
        with pytest.raises(ConfigurationError, match=r"accepted: \(none\)"):
            _spec(scheme="sync-sgd", rule="async", rule_params={"lr": 1})

    @pytest.mark.parametrize("scheme, params, hint, accepted", [
        # A spec holds data, not objects: no scheme takes a wait
        # policy.
        ("sync-sgd", {"policy": None}, "'policy'", "seed"),
        ("is-sgd", {"bogus": 1}, "'bogus'", "seed"),
        ("gc", {"sed": 3}, "'sed' — did you mean 'seed'?", "seed"),
        # Only the exact decoder and classic GC memoise, each with a
        # memo of its own: a spec names no cache.
        ("is-gc-fr", {"cache": None}, "'cache'", "seed"),
        ("is-gc-cr", {"bogus": 1}, "'bogus'", "seed"),
        # Admission checks HR's c1, c2 and num_groups and the key names
        # alike, so the misspelt extra key is refused at construction.
        ("is-gc-hr", {"c1": 1, "c2": 1, "num_groups": 2, "num_group": 2},
         "'num_group' — did you mean 'num_groups'?",
         "c1, c2, num_groups, seed"),
        # A preset fixes is-gc's placement, so it takes no placement key.
        ("is-gc-fr", {"placement": "fr"}, "'placement'", "seed"),
        ("is-gc-hr", {"c1": 1, "c2": 1, "num_groups": 2, "placement": "cr"},
         "'placement'", "c1, c2, num_groups, seed"),
        # is-gc takes its placement family's parameters.
        ("is-gc", {"placement": "hr", "c1": 1, "c2": 1, "num_groups": 2,
                   "bogus": 1},
         "'bogus'", "placement, c1, c2, num_groups, seed"),
    ], ids=[
        "sync-sgd", "is-sgd", "gc", "is-gc-fr", "is-gc-cr", "is-gc-hr",
        "is-gc-fr-placement", "is-gc-hr-placement", "is-gc-any-hr",
    ])
    def test_misspelt_scheme_param_rejected_with_hint(
        self, scheme, params, hint, accepted
    ):
        message = (
            f"unknown scheme_params for scheme {scheme!r}: {hint}; "
            f"accepted: {accepted}"
        )
        # Construction is admission: the spec never reaches a factory.
        with pytest.raises(ConfigurationError) as exc:
            _spec(scheme=scheme, scheme_params=params)
        assert str(exc.value) == message
        # The factory checks the same set with the same text.
        with pytest.raises(ConfigurationError) as exc:
            make_strategy(
                scheme, num_workers=4, partitions_per_worker=2, wait_for=2,
                **params,
            )
        assert str(exc.value) == message

    def test_open_placement_family_params_pass_admission(self):
        # hetero forwards its extra keys to the base family.
        spec = _spec(scheme="is-gc", scheme_params={
            "placement": "hetero", "assignment": [1, 0, 3, 2],
            "base": "hr", "c1": 1, "c2": 1, "num_groups": 2,
        })
        assert run_spec(spec).num_steps == 5

    @pytest.mark.parametrize(
        "scheme", ["sync-sgd", "is-sgd", "gc", "is-gc-fr", "is-gc-cr"]
    )
    def test_shared_scheme_params_accepted_by_every_scheme(self, scheme):
        # One params table shared across a scheme grid must keep working.
        shared = {"seed": 3}
        summary = run_spec(_spec(scheme=scheme, scheme_params=shared))
        assert summary.num_steps == 5

    @pytest.mark.parametrize("key, value", [
        ("policy", 3), ("policy", "deadline"), ("cache", 3),
        ("policy", WaitForK(2)),
    ], ids=["policy-int", "policy-str", "cache-int", "policy-object"])
    def test_policy_and_cache_are_unknown_keys(self, key, value):
        # Used to be admitted and then crash run_spec (no attribute
        # 'wait') or fingerprint() (an object).  A spec names neither a
        # wait policy nor a decode memo: null or not, each is an
        # unknown key.
        for given in (value, None):
            with pytest.raises(ConfigurationError) as exc:
                _spec(scheme="is-gc-cr", scheme_params={key: given})
            assert str(exc.value) == (
                f"unknown scheme_params for scheme 'is-gc-cr': {key!r}; "
                "accepted: seed"
            )

    def test_environment_sections_accept_kind_strings(self):
        by_name = run_spec(_spec(
            delay="none", failure="none", compute="uniform",
            network="uniform", contention="none",
        ))
        by_mapping = run_spec(_spec(
            delay={"kind": "none"}, failure={"kind": "none"},
            compute={"kind": "uniform"}, network={"kind": "uniform"},
            contention={"kind": "none"},
        ))
        assert by_name == by_mapping
        with pytest.raises(ConfigurationError, match="unknown delay model"):
            run_spec(_spec(delay="exponentail"))

    @pytest.mark.parametrize(
        "section", ["delay", "failure", "compute", "network", "contention"]
    )
    @pytest.mark.parametrize("value", [["none"], 3, ("kind", "none")])
    def test_environment_section_of_wrong_type_rejected(self, section, value):
        with pytest.raises(ConfigurationError) as exc:
            run_spec(_spec(**{section: value}))
        assert str(exc.value) == (
            f"spec section {section!r} must be a kind string or a "
            f"{{'kind': ...}} mapping, got {value!r}"
        )

    @pytest.mark.parametrize("field, name, message", [
        ("scheme", "is-gc-cx",
         "unknown scheme 'is-gc-cx' — did you mean 'is-gc-cr' or "),
        ("backend", "flatt",
         "unknown backend 'flatt' — did you mean 'flat'? "
         "(registered backends: "),
        ("scheme", ["is-gc"], "scheme must be a string, got ['is-gc']"),
        ("scheme", 7, "scheme must be a string, got 7"),
        ("backend", ["flat"], "backend must be a string, got ['flat']"),
        ("backend", {"kind": "flat"}, "backend must be a string, got {"),
        ("rule", ["sync"], "rule must be a string, got ['sync']"),
        ("rule", {"kind": "sync"}, "rule must be a string, got {"),
        ("name", 5, "name must be a string, got 5"),
        ("dataset", 3, "dataset must be a {'kind': ...} mapping, got 3"),
        ("dataset", {"kind": "nope"},
         "unknown dataset kind 'nope' (known kinds: classification, "
         "cifar-like, regression)"),
        ("dataset", {"kind": "regresion"},
         "unknown dataset kind 'regresion' — did you mean 'regression'?"),
        ("model", "mlp", "model must be a {'kind': ...} mapping, got 'mlp'"),
        ("model", {"kind": "nope"},
         "unknown model kind 'nope' (known kinds: logistic, linear, "
         "softmax, mlp)"),
        ("model", {"kind": "logistic", "hidden": 3},
         "model: model 'logistic' got unknown parameter 'hidden' "
         "(accepted: seed)"),
        ("model", {"kind": "mlp", "hidden_unit": 3},
         "model: model 'mlp' got unknown parameter 'hidden_unit' — did "
         "you mean 'hidden_units'? (accepted: num_classes, hidden_units, "
         "seed)"),
        ("dataset", {"samples": "many"},
         "dataset.samples must be a positive integer, got 'many'"),
        ("dataset", {"kind": "classification", "bogus": 1},
         "dataset: dataset 'classification' got unknown parameter "
         "'bogus' (accepted: samples, features, num_classes, separation, "
         "seed, batch_size)"),
        ("dataset",
         {"kind": "cifar-like", "samples": 256, "num_classes": 4,
          "bogus": 1},
         "dataset: dataset 'cifar-like' got unknown parameter "
         "'num_classes' (accepted: samples, side, seed, batch_size); "
         "dataset: dataset 'cifar-like' got unknown parameter 'bogus'"),
        ("dataset", {"kind": "regression", "num_classes": 9,
                     "separation": 7},
         "dataset: dataset 'regression' got unknown parameter "
         "'num_classes' (accepted: samples, features, noise, seed, "
         "batch_size); dataset: dataset 'regression' got unknown "
         "parameter 'separation'"),
    ], ids=[
        "scheme-typo", "backend-typo", "scheme-list", "scheme-int",
        "backend-list", "backend-table", "rule-list", "rule-table",
        "name-int", "dataset-int", "dataset-kind", "dataset-kind-typo",
        "model-str", "model-kind", "model-key", "model-key-typo",
        "dataset-value", "dataset-key", "cifar-like-keys",
        "regression-keys",
    ])
    def test_bad_scheme_or_backend_name_rejected(
        self, tmp_path, capsys, field, name, message
    ):
        """A name arriving from a spec file — typo, list, table — is a
        ConfigurationError at construction (``repro run``: ``error:
        ...``, exit 2), never a raw TypeError from a dict lookup nor a
        failure inside the build."""
        from repro import cli

        payload = {**_spec().to_dict(), field: name}
        with pytest.raises(ConfigurationError) as exc:
            ExperimentSpec.from_dict(payload)
        assert message in str(exc.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {exc.value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rule, params", [
        ("adaptive", {"review_every": 0}),
        ("adaptive", {"min_recovery_gain": 7.0}),
        ("local-update", {"local_steps": 0}),
        ("local-update", {"local_lr": -1.0}),
    ])
    def test_out_of_range_rule_param_rejected(self, rule, params):
        # Refused at admission, before the rule that would raise is built.
        (key,) = params
        with pytest.raises(ConfigurationError, match=f"rule_params.{key}"):
            _spec(rule=rule, rule_params=params)

    def test_async_rule_returns_async_summary(self):
        summary = run_spec(_spec(scheme="sync-sgd", wait_for=None,
                                 rule="async"))
        assert summary.num_updates == 5

    def test_seed_controls_trajectory(self):
        a = run_spec(_spec(seed=1))
        b = run_spec(_spec(seed=1))
        c = run_spec(_spec(seed=2))
        assert a.loss_curve == b.loss_curve
        assert a.loss_curve != c.loss_curve

    def test_replace_is_the_sweep_idiom(self):
        spec = _spec()
        widened = dataclasses.replace(spec, wait_for=3)
        assert widened.wait_for == 3
        assert spec.wait_for == 2

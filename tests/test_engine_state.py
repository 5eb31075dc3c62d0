"""Snapshot / restore determinism of the resumable RoundEngine API.

The contract under test (see ``docs/architecture.md``): for any spec,
``start → step k rounds → snapshot → JSON round-trip → fresh engine →
restore → continue`` produces *bit-for-bit* the trajectory of the
uninterrupted run — summaries, reports and streamed traces alike.
Everything the serve layer's eviction and crash recovery does reduces
to this property.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.core import RoundEngine
from repro.engine.report import build_run_report
from repro.engine.spec import ExperimentSpec, build_engine
from repro.engine.state import (
    EngineState,
    async_record_from_dict,
    async_record_to_dict,
    generator_state,
    record_from_dict,
    record_to_dict,
    set_generator_state,
)
from repro.exceptions import TrainingError
from repro.obs import RoundTracer
from repro.types import AsyncUpdateRecord, StepRecord

from time_origins import assert_time_origins

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "record_engine_state", GOLDEN_DIR / "record_engine_state.py"
)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

GOLDEN = json.loads((GOLDEN_DIR / "engine_state.json").read_text())

#: Every backend × update-rule combination the engine supports (the
#: ``async`` rule always runs on the async-arrivals backend).
COMBOS = [
    pytest.param("flat", "sync", id="flat-sync"),
    pytest.param("actor", "sync", id="actor-sync"),
    pytest.param("flat", "local-update", id="flat-local-update"),
    pytest.param("flat", "adaptive", id="flat-adaptive"),
    pytest.param("flat", "async", id="async-arrivals"),
]


def make_spec(backend="flat", rule="sync", **over):
    base = dict(
        name="state-test",
        scheme="is-gc-cr",
        num_workers=4,
        partitions_per_worker=2,
        wait_for=2,
        backend=backend,
        rule=rule,
        max_steps=10,
        seed=7,
    )
    if rule == "adaptive":
        # Review early and accept any gain so a migration actually
        # happens inside the test horizon — the strategy swap is the
        # hardest piece of state to restore.
        base["rule_params"] = {"review_every": 3, "min_recovery_gain": 0.0}
    base.update(over)
    return ExperimentSpec(**base)


def traced(spec, tracer=None):
    """``tracer``, or a fresh one for a run that has rounds to trace:
    every run here is held to the time-origin contract, and that reads
    the round traces."""
    if tracer is None and spec.rule != "async":
        return RoundTracer()
    return tracer


def run_uninterrupted(spec, tracer=None):
    engine = build_engine(spec, tracer=traced(spec, tracer))
    if spec.rule == "async":
        engine.start_updates(spec.max_steps)
        while not engine.step_updates(1):
            pass
        assert_time_origins(engine)
        return engine.finish_updates()
    engine.start_run(
        spec.max_steps,
        loss_threshold=spec.loss_threshold,
        smoothing_window=spec.smoothing_window,
    )
    while not engine.step_rounds(1):
        pass
    assert_time_origins(engine)
    return engine.finish_run()


def run_with_suspension(spec, cut, tracer=None):
    """Run to ``cut`` rounds, snapshot, resume on a fresh engine; the
    resumed rounds must chain from the clock the snapshot was cut at."""
    first = build_engine(spec)
    if spec.rule == "async":
        first.start_updates(spec.max_steps)
        if cut:
            first.step_updates(cut)
    else:
        first.start_run(
            spec.max_steps,
            loss_threshold=spec.loss_threshold,
            smoothing_window=spec.smoothing_window,
        )
        if cut:
            first.step_rounds(cut)
    state = EngineState.from_json(first.snapshot().to_json())

    second = build_engine(spec, tracer=traced(spec, tracer))
    if spec.rule == "async":
        second.start_updates(spec.max_steps)
        second.restore(state)
        while not second.step_updates(1):
            pass
        assert_time_origins(second)
        return second.finish_updates()
    second.start_run(
        spec.max_steps,
        loss_threshold=spec.loss_threshold,
        smoothing_window=spec.smoothing_window,
    )
    second.restore(state)
    while not second.step_rounds(1):
        pass
    assert_time_origins(second, start=first.clock)
    return second.finish_run()


def report_dict(spec, summary):
    return build_run_report(summary, spec=spec).to_dict()


class TestSnapshotResume:
    @pytest.mark.parametrize("backend,rule", COMBOS)
    @pytest.mark.parametrize("cut", [1, 4])
    def test_resume_bit_identical(self, backend, rule, cut):
        spec = make_spec(backend, rule)
        baseline = report_dict(spec, run_uninterrupted(spec))
        resumed = report_dict(spec, run_with_suspension(spec, cut))
        assert resumed == baseline

    @pytest.mark.parametrize("backend,rule", COMBOS)
    def test_snapshot_at_round_zero(self, backend, rule):
        spec = make_spec(backend, rule)
        baseline = report_dict(spec, run_uninterrupted(spec))
        resumed = report_dict(spec, run_with_suspension(spec, 0))
        assert resumed == baseline

    def test_resume_with_loss_threshold_early_stop(self):
        spec = make_spec(
            "flat", "sync", max_steps=60, loss_threshold=0.45,
        )
        baseline = run_uninterrupted(spec)
        resumed = run_with_suspension(spec, 3)
        assert baseline.reached_threshold
        assert report_dict(spec, resumed) == report_dict(spec, baseline)

    def test_repeated_suspension(self):
        # Snapshot/restore at *every* round boundary — the degenerate
        # schedule a capacity-0 worker pool produces.
        spec = make_spec("flat", "sync", max_steps=6)
        baseline = report_dict(spec, run_uninterrupted(spec))
        state, clock = None, 0.0
        while True:
            engine = build_engine(spec, tracer=RoundTracer())
            engine.start_run(
                spec.max_steps,
                loss_threshold=spec.loss_threshold,
                smoothing_window=spec.smoothing_window,
            )
            if state is not None:
                engine.restore(state)
            done = engine.step_rounds(1)
            assert_time_origins(engine, start=clock)
            if done:
                resumed = report_dict(spec, engine.finish_run())
                break
            clock = engine.clock
            state = EngineState.from_json(engine.snapshot().to_json())
        assert resumed == baseline

    def test_traces_identical_across_resume(self):
        spec = make_spec("flat", "sync", max_steps=8)
        straight = RoundTracer(scheme="t")
        run_uninterrupted(spec, tracer=straight)

        resumed_tracer = RoundTracer(scheme="t")
        run_with_suspension(spec, 3, tracer=resumed_tracer)
        # The resumed engine only traces the rounds it executes; the
        # tail it produces must match the uninterrupted stream's tail
        # line for line (the serve layer rewinds the file to the cut
        # and appends exactly this).
        tail = [t.to_dict() for t in resumed_tracer.traces]
        full = [t.to_dict() for t in straight.traces]
        assert tail == full[len(full) - len(tail):]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        cut=st.integers(min_value=0, max_value=9),
        rule=st.sampled_from(["sync", "local-update", "async"]),
    )
    def test_resume_determinism_property(self, seed, cut, rule):
        spec = make_spec("flat", rule, seed=seed, max_steps=10)
        baseline = report_dict(spec, run_uninterrupted(spec))
        resumed = report_dict(spec, run_with_suspension(spec, cut))
        assert resumed == baseline


_finite = st.floats(allow_nan=False, allow_infinity=False)
#: plain floats and ``np.float64`` (what numpy-computed metrics are).
_float_values = st.one_of(_finite, _finite.map(np.float64))
_counts = st.integers(min_value=0, max_value=10**6)

step_records = st.builds(
    StepRecord,
    step=_counts,
    sim_time=_float_values,
    wait_time=_float_values,
    num_available=_counts,
    num_recovered=_counts,
    recovery_fraction=_float_values,
    loss=_float_values,
    grad_norm=_float_values,
    extras=st.dictionaries(st.text(max_size=6), _float_values, max_size=4),
)
async_records = st.builds(
    AsyncUpdateRecord,
    update_index=_counts,
    sim_time=_float_values,
    worker=_counts,
    staleness=_counts,
    loss=_float_values,
)


def compact(payload):
    return json.dumps(payload, separators=(",", ":"))


class TestRecordEncoding:
    """The shallow record encoders write the bytes ``asdict`` wrote."""

    @settings(max_examples=150, deadline=None)
    @given(record=step_records)
    def test_step_record_bytes_and_round_trip(self, record):
        payload = record_to_dict(record)
        assert compact(payload) == compact(dataclasses.asdict(record))
        assert record_from_dict(payload) == record
        assert record_from_dict(json.loads(compact(payload))) == record

    @settings(max_examples=150, deadline=None)
    @given(record=async_records)
    def test_async_record_bytes_and_round_trip(self, record):
        payload = async_record_to_dict(record)
        assert compact(payload) == compact(dataclasses.asdict(record))
        assert async_record_from_dict(payload) == record
        assert async_record_from_dict(json.loads(compact(payload))) == record


class TestEngineStateValue:
    def test_json_round_trip_is_lossless(self):
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(3)
        state = engine.snapshot()
        again = EngineState.from_json(state.to_json())
        assert again == state
        # And the serialised text itself is stable.
        assert again.to_json() == state.to_json()

    def test_snapshot_requires_active_run(self):
        engine = build_engine(make_spec())
        with pytest.raises(TrainingError):
            engine.snapshot()

    def test_restore_rejects_unknown_version(self):
        # Version 1 had no spec fingerprint; a payload without a
        # version is no version at all, not the current one.
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(1)
        for version in (999, 1, None):
            payload = engine.snapshot().to_dict()
            if version is None:
                del payload["version"]
            else:
                payload["version"] = version
            with pytest.raises(TrainingError,
                               match=f"version {version!r} "):
                EngineState.from_dict(payload)

    def test_restore_refuses_a_version_2_generator_state(self):
        # Version 2 kept the decoder's fairness generator state; the
        # counter-keyed stream cannot resume from it, so such a state is
        # refused in version 1's words, never converted.
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(1)
        payload = engine.snapshot().to_dict()
        assert set(payload["strategy"]) == {"decoder_key", "decode_count"}
        payload["version"] = 2
        payload["strategy"] = {
            "decoder_rng": np.random.default_rng(0).bit_generator.state
        }
        with pytest.raises(
            TrainingError,
            match=r"^engine state version 2 is not supported "
            r"\(this build reads version 3\)$",
        ):
            EngineState.from_dict(payload)

    @pytest.mark.parametrize(
        ("strategy", "match"),
        [
            ({"decode_count": 1}, r"lacks \['decoder_key'\]"),
            ({}, r"lacks \['decode_count', 'decoder_key'\]"),
            ({"decoder_key": -1, "decode_count": 1}, "decoder key"),
            ({"decoder_key": 1, "decode_count": "1"}, "decode_count"),
        ],
    )
    def test_restore_refuses_a_malformed_fairness_stream(self, strategy, match):
        # A decoder's key and counter are its whole run state, so a
        # state short of either, or with one out of range, is refused
        # rather than resumed on a fresh stream.
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(1)
        payload = engine.snapshot().to_dict()
        payload["strategy"] = strategy
        other = build_engine(spec)
        with pytest.raises(TrainingError, match=match):
            other.restore(EngineState.from_dict(payload))

    def test_spec_fingerprint_is_computed_once_per_plan(self, monkeypatch):
        spec = make_spec()
        calls = []
        real = ExperimentSpec.fingerprint

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(ExperimentSpec, "fingerprint", counted)
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        for _ in range(3):
            engine.step_rounds(1)
            state = engine.snapshot()
            other = engine.plan.engine()
            other.start_run(spec.max_steps)
            engine.plan.restore(other, state)
        assert len(calls) == 1

    def test_snapshot_carries_its_plans_spec_fingerprint(self):
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        state = engine.snapshot()
        assert state.spec_fingerprint == spec.fingerprint()
        assert EngineState.from_json(state.to_json()) == state
        # A hand-wired engine has no plan, hence no spec to name.
        bare = RoundEngine(
            engine.model, engine.streams, engine.strategy, engine.backend,
            engine.rule,
        )
        bare.start_run(spec.max_steps)
        assert bare.snapshot().spec_fingerprint is None

    def test_state_rejects_bad_mode_and_index(self):
        with pytest.raises(TrainingError):
            EngineState(mode="bogus", round_index=0, params=(),
                        max_steps=1, loss_threshold=None,
                        smoothing_window=1)
        with pytest.raises(TrainingError):
            EngineState(mode="rounds", round_index=-1, params=(),
                        max_steps=1, loss_threshold=None,
                        smoothing_window=1)

    def test_round_index_matches_committed_records(self):
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(4)
        state = engine.snapshot()
        assert state.round_index == 4
        assert len(state.records) == 4
        assert len(state.step_records) == 4

    @pytest.mark.parametrize("name", sorted(recorder.CASES))
    def test_json_is_byte_identical_to_the_recorded_parent(self, name):
        # The text a snapshot serialises to — and re-serialises to
        # after a round trip — must not move (see the recorder for the
        # two deliberate re-records).
        state = recorder.suspended_engine(*recorder.CASES[name]).snapshot()
        assert state.to_json() == GOLDEN[name]
        assert EngineState.from_json(GOLDEN[name]).to_json() == GOLDEN[name]

    def test_snapshot_shares_records_and_ignores_later_rounds(self):
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(3)
        state = engine.snapshot()
        frozen = state.to_json()
        # No copy of the history: the very objects the engine committed.
        assert all(a is b for a, b in zip(state.records, engine.records))
        assert all(isinstance(r, StepRecord) for r in state.records)
        engine.step_rounds(4)
        assert len(engine.records) == 7
        assert len(state.records) == state.round_index == 3
        assert state.to_json() == frozen
        # ...and restoring it does not tie the engine's list to the
        # state's tuple either.
        other = build_engine(spec)
        other.start_run(spec.max_steps)
        other.restore(state)
        other.step_rounds(1)
        assert len(state.records) == 3
        assert state.to_json() == frozen

    @pytest.mark.parametrize("backend,rule", COMBOS)
    def test_history_splits_and_rejoins(self, backend, rule):
        # The incremental-persistence view: a head without records plus
        # one plain dict per record is the whole state again.
        engine = recorder.suspended_engine(backend, rule, 4)
        state = engine.snapshot()
        head = state.without_history()
        assert head.records == () and head.async_records == ()
        assert head.losses == ()
        assert head.round_index == state.round_index == 4
        lines = [json.loads(json.dumps(r)) for r in state.history()]
        assert len(lines) == 4
        assert state.history(3) == state.history()[3:]
        rejoined = EngineState.from_json(head.to_json()).with_history(lines)
        assert rejoined == state
        assert rejoined.to_json() == state.to_json()
        kind = AsyncUpdateRecord if rule == "async" else StepRecord
        assert all(isinstance(r, kind) for r in rejoined.step_records
                   + rejoined.update_records)

    def test_history_split_refuses_a_curve_that_is_not_the_records(self):
        # Only reachable by driving run_step() around step_rounds();
        # the head drops the curve, so it must be the records' column.
        state = recorder.suspended_engine("flat", "sync", 3).snapshot()
        lopsided = dataclasses.replace(state, losses=state.losses[:2])
        with pytest.raises(TrainingError, match="cannot be split"):
            lopsided.without_history()

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda p: p.update(version=99), id="version-skew"),
        pytest.param(lambda p: p.pop("params"), id="truncated"),
        pytest.param(lambda p: p.update(params=5), id="params-not-a-list"),
        pytest.param(lambda p: p.update(round_index="x"), id="bad-index"),
        pytest.param(lambda p: p.update(records=[7]), id="record-not-a-dict"),
        pytest.param(
            lambda p: p["records"][0].pop("loss"), id="record-missing-field"
        ),
        pytest.param(
            lambda p: p["records"][0].update(bogus=1), id="record-extra-field"
        ),
    ])
    def test_hostile_payloads_raise_training_error(self, mutate):
        payload = json.loads(GOLDEN["flat-sync@3"])
        mutate(payload)
        with pytest.raises(TrainingError):
            EngineState.from_dict(payload)
        with pytest.raises(TrainingError):
            EngineState.from_dict([payload])
        head = EngineState.from_json(GOLDEN["flat-sync@3"]).without_history()
        with pytest.raises(TrainingError, match="record is malformed"):
            head.with_history([{"step": 0}])

    def test_state_is_plain_json(self):
        spec = make_spec("flat", "adaptive", max_steps=6)
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(5)
        payload = engine.snapshot().to_dict()
        # No numpy scalars or other non-JSON types anywhere.
        text = json.dumps(payload)
        assert json.loads(text) == payload


def scramble_generator_states(node) -> int:
    """Mutate, in place, every numpy generator-state dict in the nested
    dicts under ``node``; returns how many were found."""
    if not isinstance(node, dict):
        return 0
    found = 0
    if "bit_generator" in node:
        node["state"]["state"] += 1
        node["state"]["inc"] += 2
        node["has_uint32"] = 1 - node["has_uint32"]
        found = 1
    return found + sum(scramble_generator_states(v) for v in node.values())


class TestGeneratorStateAliasing:
    """Generator-state dicts handed out or taken in are not kept:
    mutating one after the call moves no later draw."""

    def test_generator_state_helpers(self):
        expected = np.random.default_rng(3).random(5)
        rng = np.random.default_rng(3)
        handed_out = generator_state(rng)
        assert scramble_generator_states(handed_out) == 1
        assert np.array_equal(rng.random(5), expected)

        taken_in = generator_state(np.random.default_rng(3))
        set_generator_state(rng, taken_in)
        scramble_generator_states(taken_in)
        assert np.array_equal(rng.random(5), expected)

    @pytest.mark.parametrize("backend,rule", COMBOS)
    def test_engine_snapshot_and_restore(self, backend, rule):
        spec = make_spec(backend, rule)
        baseline = report_dict(spec, run_uninterrupted(spec))
        updates = spec.rule == "async"

        def started():
            engine = build_engine(spec)
            if updates:
                engine.start_updates(spec.max_steps)
            else:
                engine.start_run(spec.max_steps)
            return engine

        def finished(engine):
            step = engine.step_updates if updates else engine.step_rounds
            while not step(1):
                pass
            return report_dict(
                spec,
                engine.finish_updates() if updates else engine.finish_run(),
            )

        first = started()
        (first.step_updates if updates else first.step_rounds)(4)
        snapshot = first.snapshot()
        pristine = snapshot.to_json()
        # ``to_dict`` copies only the top level, so this scrambles the
        # snapshot's own backend (and adaptive rule) dicts; the
        # decoder's fairness stream is two ints, no generator dict.
        assert scramble_generator_states(snapshot.to_dict()) >= 1
        assert snapshot.to_json() != pristine
        assert finished(first) == baseline

        second = started()
        taken_in = EngineState.from_json(pristine)
        second.restore(taken_in)
        scramble_generator_states(taken_in.to_dict())
        assert finished(second) == baseline


class TestSweepSpecInteraction:
    def test_snapshot_invariant_under_spec_replace(self):
        # dataclasses.replace (the sweep cell constructor) must yield
        # specs whose engines are snapshot/restore-compatible with
        # themselves — the property `repro submit --sweep` leans on.
        base = make_spec()
        for wait_for in (1, 2, 3):
            spec = dataclasses.replace(base, wait_for=wait_for)
            baseline = report_dict(spec, run_uninterrupted(spec))
            resumed = report_dict(spec, run_with_suspension(spec, 2))
            assert resumed == baseline

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

from repro.engine.report import build_run_report
from repro.engine.spec import ExperimentSpec, build_engine
from repro.engine.state import EngineState
from repro.exceptions import TrainingError
from repro.obs import RoundTracer
from repro.types import AsyncUpdateRecord, StepRecord

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


def run_uninterrupted(spec, tracer=None):
    engine = build_engine(spec, tracer=tracer)
    if spec.rule == "async":
        engine.start_updates(spec.max_steps)
        while not engine.step_updates(1):
            pass
        return engine.finish_updates()
    engine.start_run(
        spec.max_steps,
        loss_threshold=spec.loss_threshold,
        smoothing_window=spec.smoothing_window,
    )
    while not engine.step_rounds(1):
        pass
    return engine.finish_run()


def run_with_suspension(spec, cut, tracer=None):
    """Run to ``cut`` rounds, snapshot, resume on a fresh engine."""
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

    second = build_engine(spec, tracer=tracer)
    if spec.rule == "async":
        second.start_updates(spec.max_steps)
        second.restore(state)
        while not second.step_updates(1):
            pass
        return second.finish_updates()
    second.start_run(
        spec.max_steps,
        loss_threshold=spec.loss_threshold,
        smoothing_window=spec.smoothing_window,
    )
    second.restore(state)
    while not second.step_rounds(1):
        pass
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
        state = None
        while True:
            engine = build_engine(spec)
            engine.start_run(
                spec.max_steps,
                loss_threshold=spec.loss_threshold,
                smoothing_window=spec.smoothing_window,
            )
            if state is not None:
                engine.restore(state)
            if engine.step_rounds(1):
                resumed = report_dict(spec, engine.finish_run())
                break
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
        spec = make_spec()
        engine = build_engine(spec)
        engine.start_run(spec.max_steps)
        engine.step_rounds(1)
        payload = engine.snapshot().to_dict()
        payload["version"] = 999
        with pytest.raises(TrainingError, match="version"):
            EngineState.from_dict(payload)

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
        # Recorded before records rode along by reference; the text a
        # snapshot serialises to — and re-serialises to after a round
        # trip — must not have moved.
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

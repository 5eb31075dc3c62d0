"""Plan reuse is invisible.

An :class:`~repro.engine.plan.EnginePlan` is the half of an engine the
spec alone determines; ``plan.engine()`` instantiates the half a run
mutates.  The contract under test: however many engines come from one
plan — one after another, or several alive at once, fresh or restored
from a snapshot — each runs bit for bit like ``build_engine(spec)``,
and nothing a run does can reach back into the plan.
"""

from __future__ import annotations

import dataclasses
import gc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EnginePlan, ExperimentSpec, build_engine
from repro.engine.state import EngineState
from repro.exceptions import TrainingError
from repro.obs import RoundTracer, write_traces

#: every backend × update rule the goldens cover (the ``async`` rule
#: always runs on the async-arrivals backend).
COMBOS = [
    ("flat", "sync"),
    ("actor", "sync"),
    ("flat", "local-update"),
    ("flat", "adaptive"),
    ("flat", "async"),
]
SCHEMES = {
    "is-gc-cr": {},
    "is-gc-fr": {},
    "is-gc-hr": {"c1": 1, "c2": 1, "num_groups": 3},
    "gc": {},
    "is-sgd": {},
    "sync-sgd": {},
}
#: adaptive migration swaps between IS-GC placements only.
CASES = [
    (backend, rule, scheme)
    for backend, rule in COMBOS
    for scheme in SCHEMES
    if rule != "adaptive" or scheme.startswith("is-gc")
]
CASE_IDS = ["-".join(case) for case in CASES]
STEPS = 8


def make_spec(backend="flat", rule="sync", scheme="is-gc-cr", **over):
    base = dict(
        name="plan-test",
        scheme=scheme,
        scheme_params=SCHEMES[scheme],
        num_workers=6,
        partitions_per_worker=2,
        wait_for=3,
        backend=backend,
        rule=rule,
        max_steps=STEPS,
        seed=7,
    )
    if rule == "adaptive":
        # Review early and accept any gain, so is-gc-cr migrates (to
        # FR) inside the horizon.
        base["rule_params"] = {"review_every": 3, "min_recovery_gain": 0.0}
    base.update(over)
    return ExperimentSpec(**base)


def start(engine, spec):
    if spec.rule == "async":
        engine.start_updates(spec.max_steps)
    else:
        engine.start_run(
            spec.max_steps,
            loss_threshold=spec.loss_threshold,
            smoothing_window=spec.smoothing_window,
        )


def step(engine, spec, count=1):
    """``count`` quanta; True once the run is complete."""
    if spec.rule == "async":
        return engine.step_updates(count)
    return engine.step_rounds(count)


def outcome(engine, spec):
    """Everything a finished run leaves behind, as comparable values."""
    if spec.rule == "async":
        return engine.finish_updates(), tuple(engine.async_records)
    return engine.finish_run(), tuple(engine.records)


def run(engine, spec):
    start(engine, spec)
    while not step(engine, spec):
        pass
    return outcome(engine, spec)


def traced(spec):
    """Every synchronous rule's rounds are traced (flat and actor share
    the cluster simulator); async runs have no rounds to trace."""
    if spec.rule != "async":
        return RoundTracer(scheme=spec.name)
    return None


def trace_bytes(tracer, path):
    if tracer is None:
        return b""
    write_traces(path, tracer.traces)
    return path.read_bytes()


class TestPlanReuseIsInvisible:
    @pytest.mark.parametrize("backend,rule,scheme", CASES, ids=CASE_IDS)
    def test_second_engine_of_a_plan_equals_a_fresh_build(
        self, backend, rule, scheme, tmp_path
    ):
        spec = make_spec(backend, rule, scheme)
        fresh_tracer = traced(spec)
        fresh = run(build_engine(spec, tracer=fresh_tracer), spec)
        want = trace_bytes(fresh_tracer, tmp_path / "fresh.jsonl")

        plan = EnginePlan(spec)
        for attempt in ("first", "second"):
            tracer = traced(spec)
            engine = plan.engine(tracer)
            assert engine.plan is plan
            assert run(engine, spec) == fresh, attempt
            got = trace_bytes(tracer, tmp_path / f"{attempt}.jsonl")
            assert got == want, attempt

    @pytest.mark.parametrize("backend,rule,scheme", CASES, ids=CASE_IDS)
    def test_restored_twin_interleaved_with_the_original(
        self, backend, rule, scheme
    ):
        self._interleave(make_spec(backend, rule, scheme), cut=3)

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        cut=st.integers(min_value=0, max_value=STEPS - 1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_restore_onto_a_plan_sibling_property(self, case, cut, seed):
        self._interleave(make_spec(*case, seed=seed), cut)

    @staticmethod
    def _interleave(spec, cut):
        """Engine 1 runs ``cut`` quanta and is snapshotted; engine 2 of
        the same plan restores the (JSON round-tripped) state; both
        then advance alternately, alive at once on the plan's shared
        dataset, streams and decoder tables."""
        want = run(build_engine(spec), spec)

        plan = EnginePlan(spec)
        first = plan.engine()
        start(first, spec)
        if cut:
            step(first, spec, cut)
        state = EngineState.from_json(first.snapshot().to_json())
        second = plan.engine()
        start(second, spec)
        plan.restore(second, state)

        done = [False, False]
        while not all(done):
            for i, engine in enumerate((first, second)):
                if not done[i]:
                    done[i] = step(engine, spec)
        assert outcome(first, spec) == want
        assert outcome(second, spec) == want


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through instance
    attributes, slots and containers (not through classes, functions
    or modules — those lead to the whole interpreter)."""
    opaque = (
        type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
        types.MethodType, np.random.Generator, np.random.BitGenerator,
        str, bytes, int, float,
    )
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
            continue
        stack.extend(gc.get_referents(obj))
    return arrays


class TestPlanIsImmutable:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_every_reachable_array_is_read_only(self, scheme):
        spec = make_spec(scheme=scheme)
        plan = EnginePlan(spec)
        run(plan.engine(), spec)  # decoder tables are built by now
        arrays = reachable_arrays(plan)
        # dataset (2) + partition block (2) at the very least
        assert len(arrays) >= 4
        writable = [a.shape for a in arrays if a.flags.writeable]
        assert writable == []

    @pytest.mark.parametrize("model,dataset", [
        ("linear", {"kind": "regression", "samples": 96, "features": 5}),
        ("softmax", {"kind": "classification", "samples": 96,
                     "features": 5, "num_classes": 3}),
        ("mlp", {"kind": "cifar-like", "samples": 96, "side": 2}),
    ])
    def test_other_models_and_datasets(self, model, dataset):
        spec = make_spec(model={"kind": model}, dataset=dataset, max_steps=3)
        plan = EnginePlan(spec)
        want = run(build_engine(spec), spec)
        assert run(plan.engine(), spec) == want
        assert run(plan.engine(), spec) == want
        assert not any(a.flags.writeable for a in reachable_arrays(plan))

    def test_writes_and_assignments_raise(self):
        plan = EnginePlan(make_spec())
        with pytest.raises(ValueError, match="read-only"):
            plan.dataset.features[0, 0] = 1.0
        for name in ("spec", "dataset", "streams", "model", "strategy"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, name, None)
        with pytest.raises((AttributeError, TypeError)):
            plan.scratch = 1  # slotted: no instance dict to grow
        assert not hasattr(plan, "__dict__")

    def test_engines_own_their_mutable_half(self):
        plan = EnginePlan(make_spec())
        a, b = plan.engine(), plan.engine()
        # shared: what the spec alone determines
        assert a.streams is b.streams is plan.streams
        assert a.eval_data is b.eval_data is plan.dataset
        assert a.strategy.placement is b.strategy.placement
        assert a.strategy.decoder._adj_rows is b.strategy.decoder._adj_rows
        assert a.strategy.decoder.key == b.strategy.decoder.key
        # owned: what EngineState describes
        assert a.model is not b.model is not plan.model
        assert a.strategy is not b.strategy is not plan.strategy
        assert a.strategy.decoder is not b.strategy.decoder
        assert a.backend is not b.backend and a.rule is not b.rule
        run(a, plan.spec)
        assert np.array_equal(
            b.model.get_parameters(), plan.model.get_parameters()
        )
        assert b.strategy.last_decode is None
        assert b.strategy.decoder.decode_count == 0
        assert a.strategy.decoder.decode_count > 0

    def test_stateless_schemes_are_shared_as_they_are(self):
        # gc's decode-vector memo is a pure function of the survivor
        # set, so it is no run state: every engine shares it.
        for scheme in ("is-sgd", "sync-sgd", "gc"):
            plan = EnginePlan(make_spec(scheme=scheme))
            assert plan.engine().strategy is plan.strategy

    def test_engines_of_an_explicit_plan_share_one_exact_memo(self):
        rows = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]
        spec = dataclasses.replace(
            make_spec(max_steps=40),
            scheme="is-gc",
            scheme_params={"placement": "explicit", "rows": rows},
        )
        fresh = run(build_engine(spec), spec)
        plan = EnginePlan(spec)
        first, second = plan.engine(), plan.engine()
        memo = first.strategy.decoder.cache
        assert second.strategy.decoder.cache is memo
        assert plan.strategy.decoder.cache is memo
        assert run(first, spec) == fresh
        hits, misses = memo.hits, memo.misses
        assert misses > 0
        # The second run meets the first one's masks in the memo and
        # still runs bit for bit like a fresh build.
        assert run(second, spec) == fresh
        assert memo.hits > hits

    def test_adaptive_swap_leaves_the_plan_untouched(self):
        spec = make_spec("flat", "adaptive", "is-gc-cr")
        plan = EnginePlan(spec)
        template, placement = plan.strategy, plan.strategy.placement
        before = placement.fingerprint
        engine = plan.engine()
        first = run(engine, spec)
        assert engine.rule.migrations, "spec no longer migrates"
        assert engine.strategy.placement.fingerprint != before
        assert plan.strategy is template
        assert plan.strategy.placement is placement
        assert placement.fingerprint == before
        # ...so the next engine starts from CR again and migrates alike.
        assert run(plan.engine(), spec) == first == run(
            build_engine(spec), spec
        )


class TestRestoreRefusesAForeignState:
    """``plan.restore`` holds a state against what it carries itself:
    its shape, then the spec fingerprint it names, which tells apart
    specs alike in shape (``is-gc-cr`` vs ``is-gc-fr``, worker counts of
    a flat run, ``flat`` vs ``actor``)."""

    @staticmethod
    def suspended(spec, cut=2):
        engine = build_engine(spec)
        start(engine, spec)
        step(engine, spec, cut)
        return engine.snapshot()

    @pytest.mark.parametrize("ours,theirs,field", [
        pytest.param(
            dict(rule="async"), dict(), "'mode' is 'rounds'",
            id="rounds-state-onto-async-rule",
        ),
        pytest.param(
            dict(), dict(rule="async"), "'mode' is 'updates'",
            id="updates-state-onto-sync-rule",
        ),
        pytest.param(
            dict(), dict(rule="local-update"), "section 'rule'",
            id="rule-sync-vs-local-update",
        ),
        pytest.param(
            dict(), dict(rule="adaptive"), "section 'rule'",
            id="rule-sync-vs-adaptive",
        ),
        pytest.param(
            dict(), dict(scheme="is-sgd"), "section 'strategy'",
            id="scheme-is-gc-vs-is-sgd",
        ),
        pytest.param(
            dict(rule="async"), dict(rule="async", num_workers=4),
            "'backend.fetch_version' has 4 entries for 6 workers",
            id="async-worker-count",
        ),
        pytest.param(
            dict(), dict(model={"kind": "softmax"}), "spec fingerprint",
            id="model-size",
        ),
        pytest.param(
            dict(), dict(scheme="is-gc-fr"), "spec fingerprint",
            id="scheme-is-gc-cr-vs-is-gc-fr",
        ),
        pytest.param(
            dict(), dict(num_workers=4), "spec fingerprint",
            id="flat-worker-count",
        ),
        pytest.param(
            dict(), dict(backend="actor"), "spec fingerprint",
            id="flat-vs-actor",
        ),
    ])
    def test_mismatch_names_the_field(self, ours, theirs, field):
        state = self.suspended(make_spec(**theirs))
        spec = make_spec(**ours)
        engine = build_engine(spec)
        start(engine, spec)
        with pytest.raises(TrainingError, match=field):
            engine.plan.restore(engine, state)

    @pytest.mark.parametrize("tamper,field", [
        pytest.param(
            lambda s: dict(params=s.params[:-1]), "parameter vector",
            id="model-size",
        ),
        pytest.param(
            lambda s: dict(rule={**s.rule, "extra": 1}), "section 'rule'",
            id="rule-field",
        ),
        pytest.param(
            lambda s: dict(mode="updates"), "'mode' is 'updates'",
            id="mode",
        ),
    ])
    def test_right_fingerprint_wrong_shape_names_the_field(
        self, tamper, field
    ):
        # A hand-edited state that keeps its spec's fingerprint is
        # still held to the engine's shape.
        spec = make_spec()
        state = self.suspended(spec)
        state = dataclasses.replace(state, **tamper(state))
        engine = build_engine(spec)
        start(engine, spec)
        with pytest.raises(TrainingError, match=field):
            engine.plan.restore(engine, state)

    def test_the_fingerprint_names_both_specs(self):
        state = self.suspended(make_spec(seed=8))
        engine = build_engine(make_spec())
        start(engine, make_spec())
        with pytest.raises(TrainingError) as err:
            engine.plan.restore(engine, state)
        assert make_spec(seed=8).fingerprint() in str(err.value)
        assert make_spec().fingerprint() in str(err.value)

    @pytest.mark.parametrize("backend,rule,scheme", CASES, ids=CASE_IDS)
    def test_own_states_are_accepted(self, backend, rule, scheme):
        spec = make_spec(backend, rule, scheme)
        state = self.suspended(spec, cut=4)
        engine = build_engine(spec)
        start(engine, spec)
        engine.plan.restore(engine, state)
        assert engine.snapshot().to_json() == state.to_json()

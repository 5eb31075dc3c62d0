"""Tests for :mod:`repro.parallel` — executors, seeding, decode cache.

The correctness bar of the parallel layer is *bit-for-bit equivalence*:
``ProcessExecutor`` results must be indistinguishable from
``SerialExecutor`` results (property-tested on a fig11-shaped grid),
and cached decodes must be indistinguishable from uncached ones —
including the decoder's RNG stream position afterwards.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cyclic import CyclicRepetition
from repro.core.decoders import Decoder, Selection, decoder_for
from repro.core.exact_decoder import ExactDecoder
from repro.core.explicit import ExplicitPlacement
from repro.core.fractional import FractionalRepetition
from repro.core.hybrid import HybridRepetition
from repro.exceptions import ConfigurationError
from repro.experiments.config import Fig11Config, Fig12Config, Fig13Config
from repro.experiments.fig11 import run_condition, run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.sweep import Sweep, SweepResult
from repro.parallel import (
    DecodeCache,
    ExecutionError,
    PointTask,
    ProcessExecutor,
    SerialExecutor,
    SweepExecutor,
    evaluate_point,
    spawn_point_seeds,
)


# ----------------------------------------------------------------------
# Module-level cell functions (picklable across the pool boundary).


def square(x):
    return x * x


def fragile(x):
    if x == 2:
        raise ValueError("boom at 2")
    return -x


def draw(a, rng):
    """A cell that consumes its injected spawned-seed generator."""
    return (a, float(rng.standard_normal()), int(rng.integers(1000)))


def tasks_for(values, seeds=None, key="x"):
    seeds = seeds if seeds is not None else [None] * len(values)
    return [
        PointTask(index=i, params={key: v}, seed=s)
        for i, (v, s) in enumerate(zip(values, seeds))
    ]


# ----------------------------------------------------------------------
# Executors


class TestSerialExecutor:
    def test_outcomes_in_index_order_with_values(self):
        outcomes = SerialExecutor().run(square, tasks_for([3, 4, 5]))
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.value for o in outcomes] == [9, 16, 25]
        assert all(o.ok and o.elapsed >= 0.0 for o in outcomes)

    def test_failure_isolated_with_full_traceback(self):
        outcomes = SerialExecutor().run(fragile, tasks_for([1, 2, 3]))
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "ValueError: boom at 2" in outcomes[1].error
        assert "Traceback" in outcomes[1].error
        assert outcomes[2].value == -3

    def test_strict_reraises_original_exception_type(self):
        with pytest.raises(ValueError, match="boom at 2"):
            SerialExecutor().run(fragile, tasks_for([2]), reraise=True)

    def test_events(self):
        events = []
        executor = SerialExecutor(on_event=events.append)
        executor.run(fragile, tasks_for([1, 2]))
        kinds = [e.kind for e in events]
        assert kinds == ["start", "point", "point", "finish"]
        points = [e for e in events if e.kind == "point"]
        assert [e.ok for e in points] == [True, False]
        assert all(e.elapsed >= 0.0 for e in points)
        assert events[-1].completed == events[-1].total == 2


class TestProcessExecutor:
    def test_matches_serial_bit_for_bit(self):
        values = list(range(7))
        serial = SerialExecutor().run(square, tasks_for(values))
        parallel = ProcessExecutor(3).run(square, tasks_for(values))
        assert [(o.index, o.value, o.error) for o in serial] == [
            (o.index, o.value, o.error) for o in parallel
        ]

    def test_spawned_seeds_make_rng_location_independent(self):
        for jobs in (1, 2, 4):
            seeds = spawn_point_seeds(1234, 5)
            outcomes = ProcessExecutor(jobs).run(
                draw, tasks_for([10, 11, 12, 13, 14], seeds, key="a")
            )
            values = [o.value for o in outcomes]
            reference = [
                draw(10 + i, np.random.default_rng(spawn_point_seeds(1234, 5)[i]))
                for i in range(5)
            ]
            assert values == reference, f"jobs={jobs} diverged"

    def test_failure_isolated_across_pool(self):
        outcomes = ProcessExecutor(2).run(fragile, tasks_for([1, 2, 3, 4]))
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert "ValueError: boom at 2" in outcomes[1].error

    def test_strict_raises_execution_error_with_traceback(self):
        with pytest.raises(ExecutionError, match="boom at 2"):
            ProcessExecutor(2).run(
                fragile, tasks_for([1, 2, 3, 4]), reraise=True
            )

    def test_unpicklable_fn_becomes_point_errors(self):
        outcomes = ProcessExecutor(2).run(
            lambda x: x, tasks_for([1, 2, 3])
        )
        assert all(not o.ok for o in outcomes)
        assert all(o.error for o in outcomes)

    def test_jobs_one_falls_back_to_serial(self):
        outcomes = ProcessExecutor(1).run(square, tasks_for([2, 3]))
        assert [o.value for o in outcomes] == [4, 9]

    def test_chunking_covers_every_task(self):
        executor = ProcessExecutor(2, chunk_size=2)
        outcomes = executor.run(square, tasks_for(list(range(9))))
        assert [o.value for o in outcomes] == [i * i for i in range(9)]

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(0)
        with pytest.raises(ConfigurationError):
            ProcessExecutor(2, chunk_size=0)

    def test_empty_task_list(self):
        assert ProcessExecutor(2).run(square, []) == []


class TestSeeding:
    def test_spawn_is_deterministic(self):
        a = spawn_point_seeds(99, 4)
        b = spawn_point_seeds(99, 4)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_accepts_seed_sequence_root(self):
        root = np.random.SeedSequence(5)
        assert len(spawn_point_seeds(root, 3)) == 3

    def test_evaluate_point_injects_rng_only_when_seeded(self):
        seeded = evaluate_point(
            draw, PointTask(0, {"a": 1}, np.random.SeedSequence(0))
        )
        assert seeded.ok
        unseeded = evaluate_point(square, PointTask(0, {"x": 3}))
        assert unseeded.value == 9

    @pytest.mark.parametrize("seed", [7, np.int64(7)], ids=["int", "np-int64"])
    def test_int_seed_refused(self, seed):
        # ``seed + i`` per point gives correlated streams.
        with pytest.raises(ConfigurationError, match="SeedSequence"):
            PointTask(0, {"a": 1}, seed)

    def test_generator_param_refused(self):
        with pytest.raises(ConfigurationError, match="'rng'.*Generator"):
            PointTask(0, {"a": 1, "rng": np.random.default_rng(0)})

    @pytest.mark.parametrize("executor", [
        SerialExecutor(), ProcessExecutor(2),
    ], ids=["serial", "process"])
    def test_partial_binding_generator_refused(self, executor):
        # A pool pickles fn once per chunk: every chunk would replay
        # the bound generator's stream from the same state.
        fn = functools.partial(draw, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="Generator"):
            executor.run(fn, tasks_for([1, 2, 3], key="a"))


# ----------------------------------------------------------------------
# The tentpole property: parallel == serial on a fig11-shaped grid.


@st.composite
def fig11_grids(draw_):
    delays = draw_(
        st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]),
            min_size=1, max_size=2, unique=True,
        )
    )
    num_workers = draw_(st.sampled_from([4, 6]))
    delayed = draw_(
        st.lists(
            st.integers(min_value=1, max_value=num_workers),
            min_size=1, max_size=2, unique=True,
        )
    )
    seed = draw_(st.integers(min_value=0, max_value=2**16))
    return Fig11Config(
        num_workers=num_workers,
        num_steps=8,
        expected_delays=tuple(delays),
        num_delayed_options=tuple(delayed),
        wait_values=(2, num_workers - 1),
        seed=seed,
    )


class TestParallelEqualsSerial:
    @settings(max_examples=4, deadline=None)
    @given(cfg=fig11_grids())
    def test_fig11_grid_parallel_equals_serial(self, cfg):
        serial = run_fig11(cfg)
        parallel = run_fig11(cfg, executor=ProcessExecutor(4))
        assert serial == parallel

    def test_sweep_over_fig11_conditions_parallel_equals_serial(self):
        cfg = Fig11Config(
            num_workers=4, num_steps=6, wait_values=(2, 3),
            num_delayed_options=(2, 4),
        )
        sweep = Sweep(
            name="fig11-shaped",
            axes={
                "expected_delay": [0.5, 1.5],
                "num_delayed": [2, 4],
            },
        )
        fn = functools.partial(run_condition, cfg)
        serial = sweep.run(fn)
        parallel = sweep.run(fn, executor=ProcessExecutor(4))
        assert [(p.params, p.value, p.error) for p in serial] == [
            (p.params, p.value, p.error) for p in parallel
        ]
        assert serial.executor == "serial"
        assert parallel.executor == "process"

    def test_fig12_and_fig13_parallel_equal_serial(self):
        # The executor path of the training figures hands run() a
        # partial of the figure config: nothing bound into it may be a
        # live Generator (SweepExecutor.run refuses one).
        cfg12 = Fig12Config(
            num_trials=1, max_steps=10, loss_threshold=0.0,
            recovery_trials=50, dataset_samples=256, wait_values=(1, 2),
        )
        cfg13 = Fig13Config(
            num_steps=10, recovery_trials=50, dataset_samples=256,
            c1_values=(0, 1),
        )
        assert run_fig12(cfg12) == run_fig12(
            cfg12, executor=ProcessExecutor(2)
        )
        assert run_fig13(cfg13) == run_fig13(
            cfg13, executor=ProcessExecutor(2)
        )


# ----------------------------------------------------------------------
# The unified Sweep.run surface


class TestSweepAPI:
    def test_run_returns_sequence_result(self):
        sweep = Sweep(name="s", axes={"x": [1, 2, 3]})
        result = sweep.run(square)
        assert isinstance(result, SweepResult)
        assert len(result) == 3
        assert result[1].value == 4
        assert list(result)[2].params == {"x": 3}
        assert result.ok and result.failures == []
        assert result.elapsed >= 0.0

    def test_seeded_run_is_executor_invariant(self):
        sweep = Sweep(name="s", axes={"a": [1, 2, 3, 4]})
        serial = sweep.run(draw, seed=7)
        parallel = sweep.run(draw, seed=7, executor=ProcessExecutor(2))
        assert [p.value for p in serial] == [p.value for p in parallel]

    def test_tables_accept_result(self):
        sweep = Sweep(name="s", axes={"x": [1, 2]})
        result = sweep.run(square)
        table = sweep.to_table(result=result)
        assert "4" in table.render()

    def test_run_specs_alias_removed(self):
        # The one-release deprecated alias is gone; over_spec sweeps go
        # through the unified Sweep.run.
        from repro.engine.spec import ExperimentSpec

        spec = ExperimentSpec(
            name="t", scheme="is-sgd", num_workers=4, wait_for=2,
            max_steps=5,
        )
        sweep = Sweep.over_spec("t", spec, {"wait_for": [2, 3]})
        assert not hasattr(sweep, "run_specs")
        result = sweep.run()
        assert len(result) == 2 and result.ok

    def test_run_without_fn_needs_over_spec(self):
        with pytest.raises(ConfigurationError, match="over_spec"):
            Sweep(name="s", axes={"x": [1]}).run()


# ----------------------------------------------------------------------
# DecodeCache


class TestDecodeCache:
    def test_hit_miss_accounting(self):
        cache = DecodeCache()
        assert cache.get_or_compute("fp", "k", 1, lambda: "a") == "a"
        assert cache.get_or_compute("fp", "k", 1, lambda: "b") == "a"
        assert cache.misses == 1 and cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = DecodeCache(maxsize=2)
        cache.get_or_compute("fp", "k", 1, lambda: 1)
        cache.get_or_compute("fp", "k", 2, lambda: 2)
        cache.get_or_compute("fp", "k", 1, lambda: None)  # refresh key 1
        cache.get_or_compute("fp", "k", 3, lambda: 3)     # evicts key 2
        assert cache.evictions == 1
        assert cache.get_or_compute("fp", "k", 1, lambda: 99) == 1
        assert cache.get_or_compute("fp", "k", 2, lambda: 99) == 99  # gone

    def test_fingerprints_isolate_equal_masks(self):
        """Same (kind, mask) under different placements must not collide."""
        cr = CyclicRepetition(6, 2)
        fr = FractionalRepetition(6, 2)
        assert cr.fingerprint != fr.fingerprint
        # Equal-content placements share a fingerprint (cache reuse
        # across processes and instances).
        assert cr.fingerprint == CyclicRepetition(6, 2).fingerprint
        cache = DecodeCache()
        mask = frozenset({0, 1, 2})
        a = cache.get_or_compute(cr.fingerprint, "chain", mask, lambda: "cr")
        b = cache.get_or_compute(fr.fingerprint, "chain", mask, lambda: "fr")
        assert (a, b) == ("cr", "fr")
        assert cache.misses == 2 and cache.hits == 0

    def test_snapshot_and_describe(self):
        cache = DecodeCache(maxsize=8)
        cache.get_or_compute("fp", "k", 1, lambda: 1)
        snap = cache.snapshot()
        assert snap["misses"] == 1.0 and snap["maxsize"] == 8.0
        assert "1 lookups" in cache.describe()

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ConfigurationError):
            DecodeCache(0)

    def test_clear_keeps_counters(self):
        cache = DecodeCache()
        cache.get_or_compute("fp", "k", 1, lambda: 1)
        cache.clear()
        assert cache.size == 0 and cache.misses == 1


# ----------------------------------------------------------------------
# Cached decoding is bit-for-bit identical to uncached decoding.


PLACEMENTS = [
    CyclicRepetition(12, 3),
    FractionalRepetition(12, 3),
    HybridRepetition(12, 1, 2, 3),
    HybridRepetition(8, 3, 0, 2),   # grouped-CR special case
    HybridRepetition(8, 0, 4, 2),   # pure-CR special case
    ExplicitPlacement.from_rows(    # exact-MIS decoded
        [[0, 4], [1, 2], [2, 3], [3, 7], [4, 5], [5, 6], [6, 1], [7, 0]]
    ),
]


def _decode_stream(placement, cache, rounds=120, seed=11):
    """Decode many random masks; return (results, final rng draw)."""
    rng = np.random.default_rng(seed)
    decoder = decoder_for(placement, rng=rng, cache=cache)
    mask_rng = np.random.default_rng(0)
    n = placement.num_workers
    results = []
    for _ in range(rounds):
        k = int(mask_rng.integers(1, n + 1))
        mask = frozenset(
            int(w) for w in mask_rng.choice(n, size=k, replace=False)
        )
        results.append(decoder.decode(mask))
    # The generator must be in the same state too: caching may never
    # absorb or reorder fairness draws.
    return results, int(rng.integers(1 << 30))


class TestCachedDecodingTransparency:
    @pytest.mark.parametrize(
        "placement", PLACEMENTS, ids=lambda p: f"{p.scheme}-{p!r}"
    )
    def test_cache_is_bit_for_bit_transparent(self, placement):
        uncached, tail_a = _decode_stream(placement, None)
        cache = DecodeCache()
        cached, tail_b = _decode_stream(placement, cache)
        assert uncached == cached
        assert tail_a == tail_b
        # Only the exact-MIS search is memoised; the linear-time
        # decoders accept a cache and never touch it.
        lookups = cache.hits + cache.misses
        assert (lookups > 0) == (placement.scheme == "explicit")

    @pytest.mark.parametrize("placement", [
        CyclicRepetition(12, 3),
        HybridRepetition(12, 1, 2, 3),  # general HR
        HybridRepetition(8, 3, 0, 2),   # conflict-isolated groups
        HybridRepetition(8, 0, 4, 2),   # pure CR
    ], ids=repr)
    def test_chain_decoders_leave_the_cache_untouched(self, placement):
        cache = DecodeCache()
        decoder = decoder_for(
            placement, rng=np.random.default_rng(0), cache=cache
        )
        masks = np.random.default_rng(1).random(
            (30, placement.num_workers)
        ) < 0.6
        masks[:, 0] = True
        decoder.decode_batch(masks)
        for row in masks:
            decoder.decode(np.flatnonzero(row).tolist())
        assert (cache.hits, cache.misses, cache.size) == (0, 0, 0)

    def test_exact_decoder_fair_draw_stays_live(self):
        placement = CyclicRepetition(8, 2)

        cache = DecodeCache()
        a = ExactDecoder(placement, rng=np.random.default_rng(3))
        b = ExactDecoder(placement, rng=np.random.default_rng(3), cache=cache)
        assert b.cache is cache and a.cache is not cache
        mask = frozenset(range(8))
        for _ in range(25):
            assert a.decode(mask) == b.decode(mask)
        assert cache.hits == 24 and cache.misses == 1
        assert a.cache.hits == 24 and a.cache.misses == 1

    def test_exact_decoder_forks_share_the_memo(self):
        parent = ExactDecoder(
            CyclicRepetition(8, 2), rng=np.random.default_rng(3)
        )
        twin = parent.fork(rng=np.random.default_rng(4))
        assert twin.cache is parent.cache and twin.rng is not parent.rng
        assert twin.key != parent.key and twin.decode_count == 0
        mask = frozenset(range(8))
        parent.decode(mask)
        twin.decode_batch([sorted(mask)])
        assert (parent.cache.misses, parent.cache.hits) == (1, 1)


# ----------------------------------------------------------------------
# Decoder API: the PR-4 deprecation shims are gone


class TestDecoderKeywordOnly:
    def test_positional_rng_rejected(self):
        # The one-release positional shim is removed: rng/cache are
        # strictly keyword-only now.
        with pytest.raises(TypeError):
            decoder_for(CyclicRepetition(6, 2), np.random.default_rng(0))

    def test_constructor_positional_rng_rejected(self):
        from repro.core.cr_decoder import CRDecoder

        with pytest.raises(TypeError):
            CRDecoder(CyclicRepetition(6, 2), np.random.default_rng(0))

    def test_legacy_select_hook_no_longer_dispatched(self):
        # Overriding the removed _select hook does nothing; the subclass
        # must implement _decode.
        class LegacyDecoder(Decoder):
            def _select(self, available):  # pragma: no cover - never called
                return frozenset([min(available)]), 1

        decoder = LegacyDecoder(
            CyclicRepetition(4, 1), rng=np.random.default_rng(0)
        )
        with pytest.raises(NotImplementedError, match="_decode"):
            decoder.decode({1, 3})

    def test_new_subclass_without_hooks_raises(self):
        class EmptyDecoder(Decoder):
            pass

        decoder = EmptyDecoder(
            CyclicRepetition(4, 1), rng=np.random.default_rng(0)
        )
        with pytest.raises(NotImplementedError):
            decoder.decode({0, 1})

    def test_selection_is_named_tuple(self):
        selection = Selection(frozenset({1}), 2)
        workers, searches = selection
        assert workers == frozenset({1}) and searches == 2

    def test_rng_and_cache_are_keyword_only(self):
        with pytest.raises(TypeError):
            decoder_for(
                CyclicRepetition(6, 2), np.random.default_rng(0), DecodeCache()
            )


def test_executor_abstract_interface():
    assert issubclass(SerialExecutor, SweepExecutor)
    assert issubclass(ProcessExecutor, SweepExecutor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Instantiating concrete executors must not warn.
        SerialExecutor()
        ProcessExecutor(2)

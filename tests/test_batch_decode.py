"""Batched decoding: bit-for-bit equivalence with the looped path.

The ``decode_batch`` contract (see :mod:`repro.core.batch`) is that for
every decoder family, ``decode_batch(masks).results()`` equals
``[decode(m) for m in masks]`` element by element *and* the decode
counter ends where the loop leaves it — row ``i`` of a batch is decode
``k + i`` of the counter-keyed fairness stream.  These tests pin that
contract for all seven registered placement families,
with and without a :class:`~repro.parallel.DecodeCache`, plus the
cache's one-pass hit/miss partition and the shared mask validation.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.closed_form import expected_recovered_exact
from repro.analysis.variance import estimator_moments
from repro.core import CyclicRepetition, FractionalRepetition, decoder_for
from repro.core.batch import enumerate_masks, masks_to_array, validate_mask
from repro.core.scheme import make_placement
from repro.exceptions import DecodeError
from repro.parallel import DecodeCache


def _family_placements():
    """One representative placement per registered family."""
    return [
        ("fr", make_placement("fr", num_workers=12, partitions_per_worker=3)),
        ("cr", make_placement("cr", num_workers=12, partitions_per_worker=3)),
        ("hr", make_placement("hr", num_workers=12, c1=1, c2=2, num_groups=3)),
        ("hr-c1-0", make_placement("hr", num_workers=12, c1=0, c2=2, num_groups=3)),
        ("hr-c2-0", make_placement("hr", num_workers=12, c1=2, c2=0, num_groups=3)),
        (
            "explicit",
            make_placement(
                "explicit",
                rows=[[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
            ),
        ),
        (
            "hetero",
            make_placement(
                "hetero",
                num_workers=8,
                assignment=[3, 1, 0, 2, 7, 5, 4, 6],
                base="cr",
                partitions_per_worker=2,
            ),
        ),
    ]


FAMILIES = _family_placements()
FAMILY_IDS = [name for name, _ in FAMILIES]


def _random_masks(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    masks = np.zeros((count, n), dtype=bool)
    lo, hi = 1, max(2, n - 1)
    for i in range(count):
        size = int(rng.integers(lo, hi + 1))
        masks[i, rng.choice(n, size=size, replace=False)] = True
    return masks


def _decoder_pair(placement, seed, cache_a=None, cache_b=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        dec_a = decoder_for(placement, rng=rng_a, cache=cache_a)
        dec_b = decoder_for(placement, rng=rng_b, cache=cache_b)
    return dec_a, rng_a, dec_b, rng_b


class TestBatchLoopEquivalence:
    """decode_batch == [decode(m) ...]: selections AND decode counter."""

    @pytest.mark.parametrize(("name", "placement"), FAMILIES, ids=FAMILY_IDS)
    def test_bit_for_bit_uncached(self, name, placement):
        masks = _random_masks(placement.num_workers, 80, seed=5)
        dec_a, rng_a, dec_b, rng_b = _decoder_pair(placement, seed=23)
        looped = [dec_a.decode(np.flatnonzero(row).tolist()) for row in masks]
        batch = dec_b.decode_batch(masks)
        assert batch.results() == looped
        assert dec_a.decode_count == dec_b.decode_count

    @pytest.mark.parametrize(("name", "placement"), FAMILIES, ids=FAMILY_IDS)
    def test_bit_for_bit_cached(self, name, placement):
        # Repeat each mask so the cache actually partitions hits/misses,
        # then run a second batched pass against a warm cache.
        base = _random_masks(placement.num_workers, 30, seed=6)
        masks = np.concatenate([base, base[::2]])
        dec_a, rng_a, dec_b, rng_b = _decoder_pair(
            placement, seed=31, cache_a=DecodeCache(), cache_b=DecodeCache()
        )
        looped = [dec_a.decode(np.flatnonzero(row).tolist()) for row in masks]
        looped += [dec_a.decode(np.flatnonzero(row).tolist()) for row in masks]
        batch1 = dec_b.decode_batch(masks)
        batch2 = dec_b.decode_batch(masks)
        assert batch1.results() + batch2.results() == looped
        assert dec_a.decode_count == dec_b.decode_count

    @pytest.mark.parametrize(("name", "placement"), FAMILIES, ids=FAMILY_IDS)
    def test_cached_equals_uncached_batched(self, name, placement):
        masks = _random_masks(placement.num_workers, 40, seed=7)
        dec_a, rng_a, dec_b, rng_b = _decoder_pair(
            placement, seed=17, cache_b=DecodeCache()
        )
        plain = dec_a.decode_batch(masks)
        cached = dec_b.decode_batch(masks)
        assert plain.results() == cached.results()
        assert dec_a.decode_count == dec_b.decode_count

    def test_list_of_masks_input(self):
        placement = CyclicRepetition(10, 2)
        mask_lists = [[0, 3, 5], [1, 2, 8, 9], [4], [0, 1, 2, 3, 4, 5]]
        dec_a, rng_a, dec_b, rng_b = _decoder_pair(placement, seed=3)
        looped = [dec_a.decode(m) for m in mask_lists]
        batch = dec_b.decode_batch(mask_lists)
        assert batch.results() == looped
        assert dec_a.decode_count == dec_b.decode_count

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=16),
        c=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    def test_cr_property(self, n, c, seed, data):
        c = min(c, n)
        placement = CyclicRepetition(n, c)
        num_masks = data.draw(st.integers(min_value=1, max_value=12))
        mask_rng = np.random.default_rng(seed)
        masks = np.zeros((num_masks, n), dtype=bool)
        for i in range(num_masks):
            size = int(mask_rng.integers(1, n + 1))
            masks[i, mask_rng.choice(n, size=size, replace=False)] = True
        dec_a, rng_a, dec_b, rng_b = _decoder_pair(placement, seed=seed)
        looped = [dec_a.decode(np.flatnonzero(row).tolist()) for row in masks]
        batch = dec_b.decode_batch(masks)
        assert batch.results() == looped
        assert dec_a.decode_count == dec_b.decode_count


#: How a mask reaches ``decode_batch`` (``decode`` gets each entry as
#: is; a boolean array row is decoded from its ascending id list).
MASK_FORMS = {
    "bool": lambda ids, n: np.isin(np.arange(n), ids),
    "ascending": lambda ids, n: sorted(ids),
    "shuffled": lambda ids, n: list(ids),
    "tuple": lambda ids, n: tuple(ids),
    "ndarray": lambda ids, n: np.array(ids),
    "set": lambda ids, n: set(ids),
}


@st.composite
def fr_batches(draw):
    """``(FR(n, c), form, masks)`` with ``n <= 96``, ``c`` any divisor
    (so ``c = 1`` and ``c = n`` included) and masks of every size, each
    listed in a random order."""
    n = draw(st.integers(1, 96))
    c = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    form = draw(st.sampled_from(sorted(MASK_FORMS)))
    masks = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(n)))
        masks.append(MASK_FORMS[form](order[:draw(st.integers(1, n))], n))
    return FractionalRepetition(n, c), form, masks


class TestFRAlgorithmOne:
    """Alg. 1 as executable properties, batched and looped."""

    @settings(max_examples=80, deadline=None)
    @given(batch=fr_batches(), seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_loop_for_every_mask_form(self, batch, seed):
        placement, form, masks = batch
        dec_a, rng_a, dec_b, rng_b = _decoder_pair(placement, seed)
        if form == "bool":
            masks = np.array(masks)
            looped = [dec_a.decode(np.flatnonzero(row).tolist()) for row in masks]
        else:
            looped = [dec_a.decode(mask) for mask in masks]
        assert dec_b.decode_batch(masks).results() == looped
        assert dec_a.decode_count == dec_b.decode_count

    @settings(max_examples=60, deadline=None)
    @given(batch=fr_batches(), seed=st.integers(0, 2**32 - 1))
    @example(
        # Drew groups in frozenset order when that was the stream.
        batch=(FractionalRepetition(48, 3), "shuffled", [[
            12, 16, 22, 14, 41, 11, 37, 9, 17, 1, 39, 8, 32, 6, 24, 5, 31, 10,
        ]]),
        seed=1,
    )
    def test_selection_ignores_the_listing_order(self, batch, seed):
        # Groups draw in ascending order, so a mask listed in any order
        # (or as a set, whose iteration order varies) decodes like its
        # sorted list — looped and batched.
        placement, form, masks = batch
        if form == "bool":
            masks = [np.flatnonzero(row).tolist() for row in masks]
        canonical = [sorted(int(w) for w in mask) for mask in masks]
        dec_a, rng_a, dec_b, rng_b = _decoder_pair(placement, seed)
        assert [dec_a.decode(mask) for mask in masks] == [
            dec_b.decode(mask) for mask in canonical
        ]
        assert dec_a.decode_count == dec_b.decode_count
        dec_a, _, dec_b, _ = _decoder_pair(placement, seed)
        assert dec_a.decode_batch(
            [list(reversed(mask)) for mask in canonical]
        ).results() == dec_b.decode_batch(canonical).results()

    @settings(max_examples=40, deadline=None)
    @given(batch=fr_batches(), seed=st.integers(0, 2**32 - 1))
    def test_one_survivor_per_non_empty_group(self, batch, seed):
        placement, form, masks = batch
        if form == "bool":
            masks = np.array(masks)
        n, c = placement.num_workers, placement.partitions_per_worker
        result = decoder_for(
            placement, rng=np.random.default_rng(seed)
        ).decode_batch(masks)
        per_group = result.selected.reshape(len(result), n // c, c).sum(axis=2)
        non_empty = result.available.reshape(len(result), n // c, c).any(axis=2)
        np.testing.assert_array_equal(per_group, non_empty.astype(int))
        assert not (result.selected & ~result.available).any()

    @pytest.mark.parametrize("seed", [2023, 7])
    def test_each_survivor_of_a_group_equally_likely(self, seed):
        # Groups of 1, 2, 3 and 4 survivors; each survivor of a k-group
        # must be kept at rate 1/k, to within five binomial standard
        # deviations over 3000 decodes of the one mask.
        trials = 3000
        mask = [0, 4, 5, 8, 9, 10, 12, 13, 14, 15]
        placement = FractionalRepetition(16, 4)
        rates = (
            decoder_for(placement, rng=np.random.default_rng(seed))
            .decode_batch([mask] * trials)
            .selected.mean(axis=0)
        )
        for group in range(4):
            survivors = [w for w in mask if w // 4 == group]
            p = 1 / len(survivors)
            bound = 5 * math.sqrt(p * (1 - p) / trials)
            for worker in survivors:
                assert abs(rates[worker] - p) <= bound, (worker, rates[worker])


class TestPythonIntIds:
    """numpy ids in, Python ``int`` ids out, on both paths."""

    @pytest.mark.parametrize("name", ["fr", "cr", "hr"])
    def test_numpy_mask_decodes_to_python_ints(self, name):
        placement = dict(FAMILIES)[name]
        mask = np.array([0, 5, 7, 9])
        looped = decoder_for(placement, rng=np.random.default_rng(0)).decode(mask)
        batched = (
            decoder_for(placement, rng=np.random.default_rng(0))
            .decode_batch([mask])
            .results()[0]
        )
        assert looped == batched
        for result in (looped, batched):
            for ids in (
                result.selected_workers,
                result.recovered_partitions,
                result.available_workers,
            ):
                assert {type(i) for i in ids} == {int}
        assert json.dumps(sorted(looped.selected_workers)) == json.dumps(
            sorted(batched.selected_workers)
        )
        assert json.dumps(sorted(looped.available_workers)) == "[0, 5, 7, 9]"


class TestBatchResultShape:
    def test_arrays_consistent(self):
        placement = CyclicRepetition(12, 2)
        masks = _random_masks(12, 25, seed=9)
        batch = decoder_for(placement, rng=np.random.default_rng(1)).decode_batch(
            masks
        )
        assert len(batch) == 25
        assert batch.available.shape == (25, 12)
        assert batch.selected.shape == (25, 12)
        assert batch.recovered.shape == (25, placement.num_partitions)
        assert (batch.selected <= batch.available).all()
        assert (batch.num_selected >= 1).all()
        np.testing.assert_array_equal(
            batch.num_recovered, batch.recovered.sum(axis=1)
        )

    def test_empty_batch(self):
        placement = CyclicRepetition(6, 2)
        batch = decoder_for(placement, rng=np.random.default_rng(0)).decode_batch(
            np.zeros((0, 6), dtype=bool)
        )
        assert len(batch) == 0
        assert batch.results() == []


class TestMaskValidation:
    """Same DecodeError, same message, looped and batched."""

    def test_empty_mask_message(self):
        with pytest.raises(DecodeError, match="zero available workers"):
            validate_mask([], 6)

    def test_duplicate_mask_message(self):
        with pytest.raises(DecodeError, match=r"duplicate available workers: \[2\]"):
            validate_mask([1, 2, 2, 3], 6)

    def test_out_of_range_message(self):
        with pytest.raises(
            DecodeError, match=r"out of range \[0, 6\): \[-1, 6\]"
        ):
            validate_mask([-1, 0, 6], 6)

    @pytest.mark.parametrize(
        ("bad", "shown"),
        [
            ([0, 2.5], "[2.5]"),
            ([0, True], "[True]"),
            ([1.0, 2.0], "[1.0, 2.0]"),
            (["a"], "['a']"),
        ],
    )
    def test_non_integer_ids_message(self, bad, shown):
        with pytest.raises(DecodeError) as err:
            validate_mask(bad, 6)
        assert str(err.value) == (
            f"available workers must be integer ids, got {shown}"
        )

    @pytest.mark.parametrize(("bad", "message"), [
        ([True, 9], "available workers must be integer ids, got [True]"),
        ([1, 1, 9], "duplicate available workers: [1]"),
        ([9, 9, np.int64(2)], "duplicate available workers: [9]"),
    ], ids=["bool-and-range", "duplicate-and-range", "numpy-duplicate"])
    def test_checks_run_in_order(self, bad, message):
        """A mask malformed two ways names the earlier check's fault:
        empty, then type, then duplicate, then range."""
        with pytest.raises(DecodeError) as err:
            validate_mask(bad, 6)
        assert str(err.value) == message

    def test_numpy_integers_accepted_numpy_floats_and_bools_not(self):
        assert validate_mask(np.array([3, 1]), 6) == frozenset({1, 3})
        # plain and numpy ids give the same set, iterating alike
        ids = [5, 0, 3]
        plain, numpy = validate_mask(ids, 6), validate_mask(np.array(ids), 6)
        assert list(plain) == list(numpy) == list(frozenset(ids))
        assert {type(w) for w in numpy} == {int}
        for bad in (np.array([1.0, 2.0]), [np.bool_(True)]):
            with pytest.raises(DecodeError, match="must be integer ids"):
                validate_mask(bad, 6)

    @pytest.mark.parametrize(("name", "placement"), FAMILIES, ids=FAMILY_IDS)
    def test_same_error_both_paths(self, name, placement):
        bad_masks = [
            [],
            [0, 0],
            [0, placement.num_workers],
            [0, 2.5],
            [0, True],
            [1.0, 2.0],
            ["a"],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            dec = decoder_for(placement, rng=np.random.default_rng(0))
        for bad in bad_masks:
            with pytest.raises(DecodeError) as looped_err:
                dec.decode(bad)
            with pytest.raises(DecodeError) as batched_err:
                dec.decode_batch([[0], bad])
            assert str(batched_err.value) == str(looped_err.value)
        # Rejected before the decode counts, on either path.
        assert dec.decode_count == 0

    def test_batch_fails_fast_without_consuming_rng(self):
        placement = CyclicRepetition(8, 2)
        rng = np.random.default_rng(4)
        dec = decoder_for(placement, rng=rng)
        state = rng.bit_generator.state
        with pytest.raises(DecodeError):
            dec.decode_batch([[0, 1], [3, 3]])
        assert dec.decode_count == 0
        assert rng.bit_generator.state == state

    def test_array_width_mismatch(self):
        dec = decoder_for(CyclicRepetition(8, 2), rng=np.random.default_rng(0))
        with pytest.raises(DecodeError, match="width 6 .* 8 workers"):
            dec.decode_batch(np.ones((2, 6), dtype=bool))

    def test_all_false_row_rejected(self):
        dec = decoder_for(CyclicRepetition(8, 2), rng=np.random.default_rng(0))
        arr = np.ones((3, 8), dtype=bool)
        arr[1] = False
        with pytest.raises(DecodeError, match="zero available workers"):
            dec.decode_batch(arr)

    def test_masks_to_array_roundtrip(self):
        avail, originals = masks_to_array([[2, 0], [1]], 4)
        assert originals == [[2, 0], [1]]
        np.testing.assert_array_equal(
            avail,
            np.array(
                [[True, False, True, False], [False, True, False, False]]
            ),
        )


class TestCacheBatchPartition:
    """get_or_compute_batch: one pass, hits/misses counted like a loop."""

    def test_partition_and_alignment(self):
        cache = DecodeCache()
        calls = []

        def compute_missing(missing):
            calls.append(list(missing))
            return [f"v:{k}" for k in missing]

        values = cache.get_or_compute_batch(
            "fp", "kind", ["a", "b", "a", "c"], compute_missing
        )
        # One compute call with the unique misses in first-occurrence
        # order; the duplicate "a" resolves as a hit (same as decoding
        # the stream one mask at a time).
        assert calls == [["a", "b", "c"]]
        assert values == ["v:a", "v:b", "v:a", "v:c"]
        assert cache.misses == 3
        assert cache.hits == 1

    def test_warm_cache_all_hits(self):
        cache = DecodeCache()
        cache.get_or_compute_batch(
            "fp", "kind", ["a", "b"], lambda ks: [k.upper() for k in ks]
        )
        values = cache.get_or_compute_batch(
            "fp", "kind", ["b", "a", "b"], lambda ks: pytest.fail("no misses")
        )
        assert values == ["B", "A", "B"]
        assert cache.hits == 3

    def test_counters_match_sequential(self):
        keys = ["x", "y", "x", "z", "y", "x"]
        batch_cache = DecodeCache()
        batch_cache.get_or_compute_batch(
            "fp", "k", keys, lambda ks: [k * 2 for k in ks]
        )
        loop_cache = DecodeCache()
        for key in keys:
            loop_cache.get_or_compute("fp", "k", key, lambda key=key: key * 2)
        assert batch_cache.hits == loop_cache.hits
        assert batch_cache.misses == loop_cache.misses

    def test_wrong_compute_length_rejected(self):
        from repro.exceptions import ConfigurationError

        cache = DecodeCache()
        with pytest.raises(ConfigurationError):
            cache.get_or_compute_batch("fp", "k", ["a", "b"], lambda ks: ["only-one"])


class TestFallbackWarning:
    """Each placement picks its decoder; none of them warns."""

    @pytest.mark.parametrize("name", ["explicit", "hetero"])
    def test_exact_by_design_schemes_stay_silent(self, name):
        from repro.core.exact_decoder import ExactDecoder

        placement = dict(FAMILIES)[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dec = decoder_for(placement, rng=np.random.default_rng(0))
        assert isinstance(dec, ExactDecoder)

    @pytest.mark.parametrize("name", ["fr", "cr", "hr"])
    def test_registered_schemes_stay_silent(self, name):
        placement = dict(FAMILIES)[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dec = decoder_for(placement, rng=np.random.default_rng(0))
        assert dec.scheme == placement.scheme == name


class TestVarianceBatchPath:
    def test_enumeration_matches_closed_form(self):
        # Decoding every C(n, w) mask in one batch must agree with the
        # closed-form E[#recovered] over the same mask distribution
        # (the decoders return *maximum* independent sets, so the mean
        # recovered count is decoder-independent).
        placement = CyclicRepetition(8, 2)
        wait_for = 4
        dec = decoder_for(placement, rng=np.random.default_rng(0))
        batch = dec.decode_batch(enumerate_masks(8, wait_for))
        expected = expected_recovered_exact(placement, wait_for)
        assert float(batch.num_recovered.mean()) == pytest.approx(expected)

    def test_exact_enumeration_unbiased(self):
        # C(6, 3) = 20 <= exact_limit, so this exercises the exact
        # enumeration path through the batch mask representation.
        placement = CyclicRepetition(6, 2)
        n = 6
        rng = np.random.default_rng(2)
        grads = rng.normal(size=(n, 4))
        full = grads.sum(axis=0)
        moments = estimator_moments(placement, 3, grads)
        assert moments.is_unbiased
        np.testing.assert_allclose(moments.mean, full, atol=1e-10)

    def test_enumerate_masks_combinations_order(self):
        from itertools import combinations

        masks = enumerate_masks(5, 3)
        expected_rows = list(combinations(range(5), 3))
        assert masks.shape == (10, 5)
        for row, combo in zip(masks, expected_rows):
            assert np.flatnonzero(row).tolist() == list(combo)

    def test_enumerate_masks_bad_size(self):
        with pytest.raises(DecodeError, match=r"mask size must be in \[1, 5\]"):
            enumerate_masks(5, 6)

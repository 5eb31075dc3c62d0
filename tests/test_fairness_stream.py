"""The decoders' counter-keyed fairness stream.

Decode ``k`` of a decoder with key ``K`` draws word ``j`` of circle
``c`` as ``S(S(K, k), c·2³² + j)`` (:mod:`repro.core.decoders`): a
bounded index is Lemire's multiply-and-reject on one word
(:func:`repro.splitmix.bounded_index`), a start order an ascending sort
of one word per start.  These tests hold the stream to that definition:

* each draw kind is uniform, by χ² at fixed keys;
* Lemire's rejection path redraws from the rejected word's own stream;
* batch row ``k`` is decode ``k`` for every decoder family and mode,
  wherever the batch falls among looped decodes;
* the number of walks per decode stays within Algs. 1–3's linear-time
  bounds on both paths.

Budgets follow the ``(1 − f)^s ≤ p_fail`` rule: a defect touching a
fraction ``f`` of the samples escapes ``s`` independent ones with
probability ``(1 − f)^s``, so ``s ≥ ln(1/p_fail) / f``.  The χ² tests
use ``p ≥ 1e-6``: a correct stream fails one with probability 1e-6,
and the keys are fixed, so the outcome never flickers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    HybridRepetition,
    decoder_for,
)
from repro.core.cr_decoder import CRDecoder
from repro.core.exact_decoder import ExactDecoder
from repro.exceptions import ConfigurationError
from repro.splitmix import (
    bounded_index,
    bounded_indices,
    counter_hash,
    counter_hashes,
    weyl_terms,
)

KEYS = [2023, 7]
MASK = 2**64 - 1


def _words(key: int, count: int) -> np.ndarray:
    return counter_hashes(np.uint64(key), weyl_terms(np.arange(count)))


class TestBoundedIndex:
    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("bound", [7, 48])
    def test_uniform(self, key, bound):
        # ≈ 2 000 draws a cell.  An index the draw cannot reach
        # (f = 1/48 of the draws at worst) escapes s = 96 000 draws with
        # (1 − 1/48)^96000 ≈ e^-2000.
        words = _words(key, 2000 * bound)
        counts = np.bincount(bounded_indices(words, bound), minlength=bound)
        assert len(counts) == bound and counts.min() > 0
        assert chisquare(counts).pvalue >= 1e-6, counts

    @pytest.mark.parametrize("key", KEYS)
    def test_array_form_is_the_scalar_form(self, key):
        words = _words(key, 600)
        bounds = np.array(
            [1, 2, 3, 48, 2**31 + 11, 2**32 - 1, 2**32, 2**40 + 3] * 75,
            dtype=np.uint64,
        )
        assert bounded_indices(words, bounds).tolist() == [
            bounded_index(int(w), int(b)) for w, b in zip(words, bounds)
        ]

    def test_an_accepted_word_is_the_high_half_of_its_product(self):
        for word in _words(3, 200).tolist():
            assert bounded_index(word, 48) == (word * 48) >> 64

    @pytest.mark.parametrize("word, bound", [
        (0, 3),
        # 6 · word = 2⁶⁴ + 2: low word 2 < 2⁶⁴ mod 6 = 4.
        (3074457345618258603, 6),
    ])
    def test_a_rejected_word_redraws_from_its_own_stream(self, word, bound):
        threshold = 2**64 % bound
        assert (word * bound) & MASK < threshold  # the crafted rejection
        retry = 0
        while (counter_hash(word, retry) * bound) & MASK < threshold:
            retry += 1
        expected = (counter_hash(word, retry) * bound) >> 64
        assert bounded_index(word, bound) == expected
        words = np.array([word, 1], dtype=np.uint64)
        assert bounded_indices(words, bound).tolist() == [
            expected, bounded_index(1, bound)
        ]


class TestStartOrder:
    @pytest.mark.parametrize("key", KEYS)
    def test_window_order_is_uniform(self, key):
        # CR(3, 3) with every worker available: the window is the whole
        # circle, so each decode's starts are one of 3! = 6 orders,
        # ≈ 4 000 each.  An order never drawn (f = 1/6) escapes
        # s = 24 000 decodes with (5/6)^24000 ≈ e^-4375.
        decoder = decoder_for(
            CyclicRepetition(3, 3), rng=np.random.default_rng(key)
        )
        counts, starts = decoder._windows(
            np.ones((24000, 3), dtype=bool),
            decoder._stream_keys(24000),
            decoder._window_terms,
        )
        assert (counts == 3).all()
        codes = starts.reshape(-1, 3) @ np.array([9, 3, 1])
        cells = np.bincount(codes)
        cells = cells[cells > 0]
        assert len(cells) == 6
        assert chisquare(cells).pvalue >= 1e-6, cells

    @pytest.mark.parametrize("key", KEYS)
    def test_all_starts_order_is_uniform(self, key):
        # starts="all" on 4 workers: 4! = 24 orders, ≈ 1 000 each
        # (escape probability (23/24)^24000 ≈ e^-1021).
        decoder = CRDecoder(
            CyclicRepetition(4, 1),
            rng=np.random.default_rng(key),
            starts="all",
        )
        _, (counts, starts) = decoder._batch_segments(
            np.ones((24000, 4), dtype=bool), decoder._stream_keys(24000)
        )
        assert (counts == 4).all()
        codes = starts.reshape(-1, 4) @ np.array([64, 16, 4, 1])
        cells = np.bincount(codes)
        cells = cells[cells > 0]
        assert len(cells) == 24
        assert chisquare(cells).pvalue >= 1e-6, cells

    def test_scalar_order_sorts_by_word_then_offset(self):
        decoder = decoder_for(
            CyclicRepetition(12, 4), rng=np.random.default_rng(0)
        )
        members = list(range(12))
        for stream in _words(11, 50).tolist():
            seed = members[bounded_index(counter_hash(stream, 0), 12)]
            expected = sorted(
                ((seed + o) % 12 for o in range(4)),
                key=lambda v: (counter_hash(stream, 1 + (v - seed) % 12),
                               (v - seed) % 12),
            )
            assert decoder._window(members, stream) == expected


# ----------------------------------------------------------------------
# Batch row k is decode k.

CASES = {
    "fr-12-3": lambda rng: decoder_for(FractionalRepetition(12, 3), rng=rng),
    "fr-12-1": lambda rng: decoder_for(FractionalRepetition(12, 1), rng=rng),
    "cr-window-12-3": lambda rng: decoder_for(CyclicRepetition(12, 3), rng=rng),
    "cr-window-7-5": lambda rng: decoder_for(CyclicRepetition(7, 5), rng=rng),
    "cr-all-10-2": lambda rng: CRDecoder(
        CyclicRepetition(10, 2), rng=rng, starts="all"
    ),
    "hr-cr-12": lambda rng: decoder_for(HybridRepetition(12, 0, 2, 3), rng=rng),
    "hr-groups-12": lambda rng: decoder_for(
        HybridRepetition(12, 2, 0, 3), rng=rng
    ),
    "hr-groups-24": lambda rng: decoder_for(
        HybridRepetition(24, 3, 0, 3), rng=rng
    ),
    "hr-general-12": lambda rng: decoder_for(
        HybridRepetition(12, 1, 2, 3), rng=rng
    ),
    "exact-8-2": lambda rng: ExactDecoder(CyclicRepetition(8, 2), rng=rng),
}


@st.composite
def interleavings(draw):
    """``(case, seed, before, batch, after)``: looped masks, a batch,
    then looped masks again, for one decoder case."""
    name = draw(st.sampled_from(sorted(CASES)))
    n = CASES[name](np.random.default_rng(0)).placement.num_workers
    mask = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    return (
        name,
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(mask, max_size=3)),
        draw(st.lists(mask, min_size=1, max_size=8)),
        draw(st.lists(mask, max_size=3)),
    )


@settings(max_examples=150, deadline=None)
@given(interleavings())
def test_batch_row_k_is_decode_k(case):
    name, seed, before, batch, after = case
    reference = CASES[name](np.random.default_rng(seed))
    decoder = CASES[name](np.random.default_rng(seed))
    assert decoder.key == reference.key

    def ids(mask):
        return np.flatnonzero(mask).tolist()

    expected = [reference.decode(ids(m)) for m in before + batch + after]
    got = [decoder.decode(ids(m)) for m in before]
    assert decoder.decode_count == len(before)
    got += decoder.decode_batch(np.array(batch)).results()
    assert decoder.decode_count == len(before) + len(batch)
    got += [decoder.decode(ids(m)) for m in after]
    assert got == expected
    assert decoder.decode_count == reference.decode_count


class TestDecoderStream:
    def test_nothing_draws_from_the_generator_after_the_key(self):
        rng = np.random.default_rng(5)
        decoder = decoder_for(CyclicRepetition(12, 3), rng=rng)
        state = rng.bit_generator.state
        assert decoder.key == int(
            np.random.default_rng(5).integers(2**64, dtype=np.uint64)
        )
        decoder.decode([0, 1, 5, 9])
        decoder.decode_batch([[2, 3], [4, 7, 11]])
        assert decoder.rng is rng and rng.bit_generator.state == state
        assert decoder.decode_count == 3

    def test_a_seeked_decoder_replays_the_stream(self):
        masks = [[0, 1, 2, 3], [1, 4, 7], [0, 2, 5, 6, 8, 11]] * 4
        first = decoder_for(CyclicRepetition(12, 3), rng=np.random.default_rng(1))
        results = [first.decode(m) for m in masks]
        other = decoder_for(CyclicRepetition(12, 3), rng=np.random.default_rng(2))
        other.key, other.decode_count = first.key, 5
        assert [other.decode(m) for m in masks[5:]] == results[5:]

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True, "3"])
    def test_key_and_counter_are_64_bit_words(self, bad):
        decoder = decoder_for(CyclicRepetition(6, 2), rng=np.random.default_rng(0))
        for name in ("key", "decode_count"):
            with pytest.raises(ConfigurationError, match=name):
                setattr(decoder, name, bad)


# ----------------------------------------------------------------------
# Linear-time pins (ROADMAP item 32): walks per decode.


def _masks(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, n + 1, size=count)
    return rng.random((count, n)).argsort(axis=1).argsort(axis=1) < sizes[:, None]


def _searches(placement, masks):
    """``num_searches`` per mask, batched and looped."""
    batch = decoder_for(
        placement, rng=np.random.default_rng(3)
    ).decode_batch(masks).num_searches
    decoder = decoder_for(placement, rng=np.random.default_rng(3))
    looped = [
        decoder.decode(np.flatnonzero(row).tolist()).num_searches
        for row in masks
    ]
    assert batch.tolist() == looped
    return batch


@pytest.mark.parametrize("n", [48, 192, 768])
def test_searches_per_decode_stay_linear(n):
    masks = _masks(n, 60, seed=n)
    assert (_searches(FractionalRepetition(n, 3), masks) == 1).all()
    c = 3
    cr = _searches(CyclicRepetition(n, c), masks)
    assert ((cr >= 1) & (cr <= c)).all()
    general = HybridRepetition(n, 1, 2, n // 4)
    assert (_searches(general, masks) <= general.group_size).all()
    groups = HybridRepetition(n, 3, 0, n // 8)
    non_empty = masks.reshape(len(masks), n // 8, 8).any(axis=2).sum(axis=1)
    assert (_searches(groups, masks) <= c * non_empty).all()

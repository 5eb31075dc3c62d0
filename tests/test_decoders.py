"""Unit tests for the scheme decoders (Algs. 1-4) and the exact decoder."""

import numpy as np
import pytest

from repro.core import (
    CRDecoder,
    CyclicRepetition,
    ExactDecoder,
    FRDecoder,
    FractionalRepetition,
    HRDecoder,
    HybridRepetition,
    decoder_for,
)
from repro.core.decoders import Selection
from repro.exceptions import ConfigurationError, DecodeError


@pytest.fixture
def fr4():
    return FractionalRepetition(4, 2)


@pytest.fixture
def cr4():
    return CyclicRepetition(4, 2)


class TestDecoderDispatch:
    def test_registry_picks_matching_decoder(self):
        assert isinstance(decoder_for(FractionalRepetition(4, 2)), FRDecoder)
        assert isinstance(decoder_for(CyclicRepetition(4, 2)), CRDecoder)
        assert isinstance(decoder_for(HybridRepetition(8, 2, 2, 2)), HRDecoder)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            FRDecoder(CyclicRepetition(4, 2))
        with pytest.raises(TypeError):
            CRDecoder(FractionalRepetition(4, 2))
        with pytest.raises(TypeError):
            HRDecoder(CyclicRepetition(4, 2))


class TestDecodeContract:
    def test_empty_available_raises(self, fr4):
        with pytest.raises(DecodeError):
            decoder_for(fr4).decode([])

    def test_out_of_range_worker_raises(self, cr4):
        with pytest.raises(DecodeError):
            decoder_for(cr4).decode([0, 7])

    def test_selected_subset_of_available(self, cr4, rng):
        dec = decoder_for(cr4, rng=rng)
        result = dec.decode([0, 1, 3])
        assert result.selected_workers <= {0, 1, 3}
        assert result.available_workers == frozenset({0, 1, 3})

    def test_recovered_is_union_of_selected_partitions(self, cr4, rng):
        dec = decoder_for(cr4, rng=rng)
        result = dec.decode([0, 2])
        expected = set()
        for w in result.selected_workers:
            expected |= set(cr4.partitions_of(w))
        assert result.recovered_partitions == frozenset(expected)

    def test_num_recovered_is_alpha_times_c(self, cr4, rng):
        result = decoder_for(cr4, rng=rng).decode([0, 2])
        assert result.num_recovered == len(result.selected_workers) * 2

    def test_disjointness_walk_runs_only_on_an_overlap(self, monkeypatch, rng):
        dec = decoder_for(CyclicRepetition(8, 2), rng=rng)
        monkeypatch.setattr(
            dec, "_check_disjoint", lambda selected: pytest.fail("walked")
        )
        for mask in ([0, 2, 4, 6], range(8), [3]):
            dec.decode(mask)

    def test_overlap_names_the_first_re_covering_worker(self, monkeypatch, rng):
        dec = decoder_for(CyclicRepetition(8, 2), rng=rng)
        monkeypatch.setattr(
            dec, "_decode", lambda available: Selection(frozenset({0, 1}), 1)
        )
        with pytest.raises(
            DecodeError,
            match=r"^decoder bug: worker 1 re-covers partitions \[1\]$",
        ):
            dec.decode([0, 1])


class TestFRDecoder:
    def test_one_worker_per_group(self, fr4, rng):
        dec = FRDecoder(fr4, rng=rng)
        result = dec.decode([0, 1, 2, 3])
        assert len(result.selected_workers) == 2
        groups = {fr4.group_of(w) for w in result.selected_workers}
        assert groups == {0, 1}

    def test_full_availability_recovers_everything(self, fr4, rng):
        result = FRDecoder(fr4, rng=rng).decode(range(4))
        assert result.recovered_partitions == frozenset(range(4))

    def test_single_group_available(self, fr4, rng):
        result = FRDecoder(fr4, rng=rng).decode([0, 1])
        assert len(result.selected_workers) == 1
        assert result.recovered_partitions == frozenset({0, 1})

    def test_randomizes_within_group(self, fr4):
        chosen = set()
        for seed in range(40):
            dec = FRDecoder(fr4, rng=np.random.default_rng(seed))
            chosen |= dec.decode([0, 1]).selected_workers
        assert chosen == {0, 1}

    def test_large_fr(self):
        pl = FractionalRepetition(24, 4)
        result = FRDecoder(pl, rng=np.random.default_rng(0)).decode(range(24))
        assert result.num_recovered == 24


class TestCRDecoder:
    def test_fig3_example(self, cr4, rng):
        """Fig. 3: with W2, W3, W4 (0-indexed 1,2,3) available the master
        should pick the non-adjacent pair, recovering all of g."""
        result = CRDecoder(cr4, rng=rng).decode([1, 2, 3])
        assert len(result.selected_workers) == 2
        assert result.num_recovered == 4

    def test_greedy_not_by_arrival_order(self, cr4, rng):
        """Decoding greedily by sequence (W1 then W3/W4) is suboptimal;
        the conflict-graph decoder must still find 2 workers from
        {W1, W2, W4} (0-indexed {0, 1, 3})."""
        result = CRDecoder(cr4, rng=rng).decode([0, 1, 3])
        assert len(result.selected_workers) == 2

    def test_invalid_starts_mode(self, cr4):
        with pytest.raises(ConfigurationError):
            CRDecoder(cr4, starts="bogus")

    def test_all_starts_mode_matches_window(self):
        pl = CyclicRepetition(13, 4)
        rng = np.random.default_rng(3)
        window = CRDecoder(pl, rng=np.random.default_rng(0))
        allmode = CRDecoder(pl, rng=np.random.default_rng(0), starts="all")
        for _ in range(100):
            w = int(rng.integers(1, 14))
            avail = rng.choice(13, size=w, replace=False).tolist()
            a = window.decode(avail)
            b = allmode.decode(avail)
            assert len(a.selected_workers) == len(b.selected_workers)

    def test_c_equals_one_selects_everyone(self):
        pl = CyclicRepetition(6, 1)
        result = CRDecoder(pl, rng=np.random.default_rng(0)).decode([0, 2, 5])
        assert result.selected_workers == frozenset({0, 2, 5})

    def test_complete_conflict_selects_one(self):
        pl = CyclicRepetition(4, 4)
        result = CRDecoder(pl, rng=np.random.default_rng(0)).decode([1, 2])
        assert len(result.selected_workers) == 1
        assert result.num_recovered == 4

    def test_num_searches_at_most_c(self):
        pl = CyclicRepetition(12, 3)
        dec = CRDecoder(pl, rng=np.random.default_rng(0))
        for avail in ([0, 3, 6, 9], [1, 2, 3], list(range(12))):
            assert dec.decode(avail).num_searches <= 3


class TestHRDecoder:
    def test_pure_cr_case(self):
        pl = HybridRepetition(8, 0, 2, 2)
        result = HRDecoder(pl, rng=np.random.default_rng(0)).decode([0, 4])
        assert len(result.selected_workers) == 2

    def test_grouped_cr_case(self):
        # c2 = 0 with n0 = c → FR-equivalent, one pick per group.
        pl = HybridRepetition(8, 4, 0, 2)
        result = HRDecoder(pl, rng=np.random.default_rng(0)).decode(range(8))
        assert len(result.selected_workers) == 2
        assert result.num_recovered == 8

    def test_general_case_full_availability(self):
        pl = HybridRepetition(8, 2, 2, 2)
        result = HRDecoder(pl, rng=np.random.default_rng(0)).decode(range(8))
        # n/c = 2 disjoint workers exist (one per group).
        assert len(result.selected_workers) == 2
        assert result.num_recovered == 8

    def test_single_worker(self):
        pl = HybridRepetition(8, 1, 3, 2)
        result = HRDecoder(pl, rng=np.random.default_rng(0)).decode([5])
        assert result.selected_workers == frozenset({5})
        assert result.num_recovered == 4


class TestExactDecoder:
    def test_works_for_any_placement(self, cr4):
        result = ExactDecoder(cr4, rng=np.random.default_rng(0)).decode([1, 2, 3])
        assert len(result.selected_workers) == 2

    def test_fair_mode_hits_all_optima(self, cr4):
        seen = set()
        for seed in range(60):
            dec = ExactDecoder(cr4, rng=np.random.default_rng(seed))
            seen.add(dec.decode(range(4)).selected_workers)
        # C_4^1 has two maximum independent sets: {0,2} and {1,3}.
        assert seen == {frozenset({0, 2}), frozenset({1, 3})}

    def test_registered_as_fallback(self):
        class OddPlacement(CyclicRepetition):
            scheme = "custom-unknown"

        # The exponential fallback is never silent for unknown schemes.
        with pytest.warns(RuntimeWarning, match="exact-MIS"):
            dec = decoder_for(OddPlacement(4, 2))
        assert isinstance(dec, ExactDecoder)

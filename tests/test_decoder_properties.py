"""Property-based tests: decoder optimality, validity, and fairness.

The headline correctness claims of the paper (Theorems 2, 3, 8, 9) say
the linear-time decoders find *maximum* independent sets.  These tests
check every scheme decoder against the exact branch-and-bound MIS over
randomized placements and availability sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import fairness_gap, monte_carlo_recovery
from repro.core import (
    CyclicRepetition,
    ExactDecoder,
    FractionalRepetition,
    HybridRepetition,
    conflict_graph,
    decoder_for,
)
from repro.graphs import independence_number


def _random_subset(n, rng):
    w = int(rng.integers(1, n + 1))
    return sorted(rng.choice(n, size=w, replace=False).tolist())


def _assert_optimal(placement, avail, seed=0):
    dec = decoder_for(placement, rng=np.random.default_rng(seed))
    result = dec.decode(avail)
    graph = conflict_graph(placement)
    selected = sorted(result.selected_workers)
    # Validity: selected workers form an available independent set.
    assert set(selected) <= set(avail)
    assert not graph.adjacency[np.ix_(selected, selected)].any()
    # Optimality: it is a *maximum* independent set.
    assert len(selected) == independence_number(graph, avail), (
        f"{placement!r} avail={avail}: got {sorted(result.selected_workers)}"
    )


class TestOptimalityFR:
    @given(
        st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (12, 3), (12, 4)]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_fr_decoder_is_optimal(self, params, seed):
        n, c = params
        rng = np.random.default_rng(seed)
        _assert_optimal(FractionalRepetition(n, c), _random_subset(n, rng), seed)


class TestOptimalityCR:
    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=250, deadline=None)
    def test_cr_decoder_is_optimal(self, n, c, seed):
        c = min(c, n)
        rng = np.random.default_rng(seed)
        _assert_optimal(CyclicRepetition(n, c), _random_subset(n, rng), seed)


class TestOptimalityHR:
    @given(
        st.sampled_from([
            (8, 3, 1, 2), (8, 2, 2, 2), (8, 1, 3, 2), (8, 0, 4, 2),
            (8, 4, 0, 2), (12, 3, 1, 3), (12, 2, 2, 3), (16, 3, 1, 4),
            (16, 2, 2, 4), (12, 4, 0, 2), (12, 2, 0, 2), (10, 4, 1, 2),
        ]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=250, deadline=None)
    def test_hr_decoder_is_optimal(self, params, seed):
        n, c1, c2, g = params
        rng = np.random.default_rng(seed)
        _assert_optimal(
            HybridRepetition(n, c1, c2, g), _random_subset(n, rng), seed
        )


class TestDisjointness:
    @given(
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_selected_partitions_are_disjoint(self, n, c, seed):
        """The summed payloads must never double-count a partition."""
        c = min(c, n)
        placement = CyclicRepetition(n, c)
        rng = np.random.default_rng(seed)
        avail = _random_subset(n, rng)
        result = decoder_for(placement, rng=rng).decode(avail)
        total = sum(
            len(placement.partitions_of(w)) for w in result.selected_workers
        )
        assert total == result.num_recovered


class TestFairness:
    """Assumption 2: every partition equally likely to be recovered."""

    @pytest.mark.parametrize("placement,w", [
        (FractionalRepetition(4, 2), 2),
        (CyclicRepetition(4, 2), 2),
        (CyclicRepetition(6, 2), 3),
        (HybridRepetition(8, 2, 2, 2), 2),
    ])
    def test_partition_inclusion_is_uniform(self, placement, w):
        stats = monte_carlo_recovery(placement, w, trials=6000, seed=9)
        # Uniformity up to Monte-Carlo noise: gap ≪ mean frequency.
        assert fairness_gap(stats) < 0.05

    def test_exact_decoder_fair_mode_uniform(self):
        placement = CyclicRepetition(4, 2)
        dec = ExactDecoder(placement, rng=np.random.default_rng(1))
        stats = monte_carlo_recovery(
            placement, 4, trials=4000, seed=2, decoder=dec
        )
        assert fairness_gap(stats) < 0.05


class TestRandomizedStartsCoverAllOptima:
    def test_cr_decoder_varies_selection(self):
        """With full availability on C_6^1 the decoder should not always
        return the same optimum (fairness requires randomization)."""
        placement = CyclicRepetition(6, 2)
        seen = set()
        for seed in range(50):
            dec = decoder_for(placement, rng=np.random.default_rng(seed))
            seen.add(dec.decode(range(6)).selected_workers)
        assert len(seen) >= 2

"""Tests for Theorems 10-12 (Sec. VII)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import check_bounds_exhaustive, worst_case_alpha, best_case_alpha
from repro.core import (
    CyclicRepetition,
    DescentBound,
    FractionalRepetition,
    HybridRepetition,
    alpha_lower_bound,
    alpha_upper_bound,
    recovered_partitions_bounds,
)


class TestBoundFormulas:
    def test_lower_bound_examples(self):
        assert alpha_lower_bound(4, 2, 2) == 1
        assert alpha_lower_bound(4, 2, 3) == 2
        assert alpha_lower_bound(8, 2, 5) == 3
        assert alpha_lower_bound(8, 4, 8) == 2

    def test_upper_bound_examples(self):
        assert alpha_upper_bound(4, 2, 2) == 2
        assert alpha_upper_bound(4, 2, 1) == 1
        assert alpha_upper_bound(8, 2, 6) == 4

    def test_w_zero(self):
        assert alpha_lower_bound(4, 2, 0) == 0
        assert alpha_upper_bound(4, 2, 0) == 0

    def test_recovered_partitions_capped_at_n(self):
        lo, hi = recovered_partitions_bounds(7, 3, 7)
        assert hi <= 7
        assert lo <= hi

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_lower_bound(0, 1, 0)
        with pytest.raises(ValueError):
            alpha_lower_bound(4, 5, 2)
        with pytest.raises(ValueError):
            alpha_upper_bound(4, 2, 5)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_lower_never_exceeds_upper(self, n, c, w):
        c = min(c, n)
        w = min(w, n)
        assert alpha_lower_bound(n, c, w) <= alpha_upper_bound(n, c, w)


class TestBoundsHoldEmpirically:
    """Theorems 10/11 against exhaustive enumeration of W'."""

    @pytest.mark.parametrize("placement", [
        FractionalRepetition(6, 2),
        FractionalRepetition(8, 4),
        CyclicRepetition(6, 2),
        CyclicRepetition(7, 3),
        CyclicRepetition(8, 3),
        HybridRepetition(8, 2, 2, 2),
        HybridRepetition(8, 3, 1, 2),
        # n0 = 6 > c = 4: the printed Theorem 10 bracket misses these,
        # each placement's own (corrected) bracket holds.
        HybridRepetition(12, 4, 0, 2),
        HybridRepetition(12, 3, 1, 2),
    ])
    def test_all_subsets_within_bounds(self, placement):
        n = placement.num_workers
        for w in range(1, n + 1):
            for check in check_bounds_exhaustive(placement, w):
                assert check.holds, (
                    f"{placement!r} w={w} W'={check.available}: "
                    f"α={check.alpha} ∉ [{check.lower}, {check.upper}]"
                )

    @pytest.mark.parametrize("n,c", [(6, 2), (8, 2), (8, 4), (9, 3)])
    def test_fr_lower_bound_is_tight(self, n, c):
        """Packing W' into few groups achieves the Theorem 10 bound."""
        pl = FractionalRepetition(n, c)
        for w in range(1, n + 1):
            assert worst_case_alpha(pl, w) == alpha_lower_bound(n, c, w)

    @pytest.mark.parametrize("n,c", [(6, 2), (8, 2), (7, 3), (9, 3)])
    def test_cr_lower_bound_is_tight(self, n, c):
        """Consecutive W' achieves the Theorem 10 bound for CR."""
        pl = CyclicRepetition(n, c)
        for w in range(1, n + 1):
            assert worst_case_alpha(pl, w) == alpha_lower_bound(n, c, w)

    @pytest.mark.parametrize("n,c", [(6, 2), (8, 2), (8, 4), (7, 3)])
    def test_upper_bound_is_tight_for_cr(self, n, c):
        """Spread-out W' achieves the Theorem 11 bound."""
        pl = CyclicRepetition(n, c)
        for w in range(1, n + 1):
            assert best_case_alpha(pl, w) == alpha_upper_bound(n, c, w)


class TestFRBeatsCR:
    """Sec. V-C: FR's induced independence number dominates CR's."""

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 2), (8, 2), (8, 4), (9, 3)])
    def test_fr_alpha_geq_cr_alpha_on_every_subset(self, n, c):
        from itertools import combinations

        from repro.core import conflict_graph
        from repro.graphs import independence_number

        fr_graph = conflict_graph(FractionalRepetition(n, c))
        cr_graph = conflict_graph(CyclicRepetition(n, c))
        for w in range(1, n + 1):
            for subset in combinations(range(n), w):
                assert independence_number(
                    fr_graph, subset
                ) >= independence_number(cr_graph, subset)


class TestDescentBound:
    def test_decrease_with_zero_noise(self):
        bound = DescentBound(lipschitz=1.0, sigma_squared=0.0)
        nxt = bound.expected_decrease(
            loss=1.0, grad_norm_squared=0.5, learning_rate=0.1,
            decoded_samples=10,
        )
        assert nxt == pytest.approx(1.0 - 0.1 * 10 * 0.5)

    def test_noise_term_grows_quadratically(self):
        bound = DescentBound(lipschitz=2.0, sigma_squared=1.0)
        small = bound.expected_decrease(1.0, 0.0, 0.01, 5)
        large = bound.expected_decrease(1.0, 0.0, 0.01, 10)
        assert (large - 1.0) == pytest.approx(4 * (small - 1.0))

    def test_small_lr_guarantees_descent(self):
        """Theorem 12's point: small η makes the noise term negligible."""
        bound = DescentBound(lipschitz=10.0, sigma_squared=4.0)
        samples, grad_sq = 16, 1.0
        eta = bound.max_stable_learning_rate(samples) * 1e-3
        nxt = bound.expected_decrease(5.0, grad_sq, eta, samples)
        assert nxt < 5.0

    def test_validation(self):
        bound = DescentBound(lipschitz=1.0, sigma_squared=1.0)
        with pytest.raises(ValueError):
            bound.expected_decrease(1.0, 1.0, -0.1, 4)
        with pytest.raises(ValueError):
            bound.expected_decrease(1.0, 1.0, 0.1, -4)
        with pytest.raises(ValueError):
            DescentBound(lipschitz=-1.0, sigma_squared=1.0).expected_decrease(
                1.0, 1.0, 0.1, 4
            )
        with pytest.raises(ValueError):
            bound.max_stable_learning_rate(0)


class TestTheorem10HREdgeCase:
    """The printed Theorem 10 lower bound fails for HR with n0 > c.

    HR(12, 4, 0, g=2) has two conflict-complete groups of n0 = 6
    workers (within-group CR(6, 4) is complete since 6 <= 2·4 − 1), so
    at most g = 2 workers can ever be selected — but the printed bound
    claims min(⌈12/4⌉, ⌊12/4⌋) = 3 at w = 12.  The corrected
    group-aware bounds (``hr_alpha_bounds``) hold instead; this test
    documents the deviation (also noted in README).
    """

    def test_printed_bound_violated(self):
        from repro.core import HybridRepetition, conflict_graph
        from repro.graphs import independence_number

        placement = HybridRepetition(12, 4, 0, 2)
        alpha = independence_number(conflict_graph(placement), range(12))
        assert alpha == 2
        assert alpha < alpha_lower_bound(12, 4, 12)  # printed: 3

    def test_corrected_bounds_hold_exhaustively(self):
        from itertools import combinations

        from repro.core import HybridRepetition, conflict_graph, hr_alpha_bounds
        from repro.graphs import independence_number

        for n, c1, c2, g in [
            (12, 4, 0, 2), (12, 3, 1, 2), (8, 3, 0, 2), (10, 4, 1, 2),
        ]:
            placement = HybridRepetition(n, c1, c2, g)
            graph = conflict_graph(placement)
            for w in range(1, n + 1):
                lo, hi = hr_alpha_bounds(n, c1, c2, g, w)
                alphas = [
                    independence_number(graph, sub)
                    for sub in combinations(range(n), w)
                ]
                assert lo <= min(alphas), (n, c1, c2, g, w)
                assert max(alphas) <= hi, (n, c1, c2, g, w)

    def test_reduces_to_classical_for_interpolating_hr(self):
        from repro.core import hr_alpha_bounds

        for w in range(1, 9):
            assert hr_alpha_bounds(8, 0, 4, 2, w) == (
                alpha_lower_bound(8, 4, w), alpha_upper_bound(8, 4, w)
            )
            assert hr_alpha_bounds(8, 3, 1, 2, w) == (
                alpha_lower_bound(8, 4, w), alpha_upper_bound(8, 4, w)
            )

    def test_validation(self):
        from repro.core import hr_alpha_bounds

        with pytest.raises(ValueError):
            hr_alpha_bounds(12, 2, 2, 5, 4)  # g does not divide n

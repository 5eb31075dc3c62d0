"""Tests for the analysis layer: recovery stats, theory checks, reporting."""

import pytest

from repro.analysis import (
    Table,
    check_bounds_sampled,
    fairness_gap,
    monte_carlo_recovery,
)
from repro.core import CyclicRepetition, FractionalRepetition
from repro.exceptions import ConfigurationError


class TestMonteCarloRecovery:
    def test_full_availability_full_recovery(self):
        stats = monte_carlo_recovery(CyclicRepetition(4, 2), 4, trials=50)
        assert stats.mean_recovered == pytest.approx(4.0)
        assert stats.min_recovered == 4

    def test_w1_recovers_c(self):
        stats = monte_carlo_recovery(CyclicRepetition(6, 3), 1, trials=50)
        assert stats.mean_recovered == pytest.approx(3.0)

    def test_fr_beats_cr_at_w2_n4(self):
        """The Fig. 12(a) effect at w=2."""
        fr = monte_carlo_recovery(FractionalRepetition(4, 2), 2, trials=3000)
        cr = monte_carlo_recovery(CyclicRepetition(4, 2), 2, trials=3000)
        assert fr.mean_recovered > cr.mean_recovered

    def test_exact_expected_value_fr(self):
        """FR(4,2), w=2: P(same group) = 2/6 → E[recovered] = 10/3."""
        stats = monte_carlo_recovery(
            FractionalRepetition(4, 2), 2, trials=20_000, seed=3
        )
        assert stats.mean_recovered == pytest.approx(10 / 3, rel=0.02)

    def test_exact_expected_value_cr(self):
        """CR(4,2), w=2: 4 of 6 pairs adjacent → E = (4·2 + 2·4)/6."""
        stats = monte_carlo_recovery(
            CyclicRepetition(4, 2), 2, trials=20_000, seed=4
        )
        assert stats.mean_recovered == pytest.approx(16 / 6, rel=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            monte_carlo_recovery(CyclicRepetition(4, 2), 0)
        with pytest.raises(ConfigurationError):
            monte_carlo_recovery(CyclicRepetition(4, 2), 2, trials=0)

    def test_describe(self):
        stats = monte_carlo_recovery(CyclicRepetition(4, 2), 2, trials=20)
        assert "w=2" in stats.describe()

    def test_fairness_gap_zero_for_symmetric_full(self):
        stats = monte_carlo_recovery(CyclicRepetition(4, 2), 4, trials=100)
        assert fairness_gap(stats) == pytest.approx(0.0)


class TestTheoryHelpers:
    def test_sampled_bounds_hold(self):
        pl = CyclicRepetition(10, 3)
        for check in check_bounds_sampled(pl, 5, trials=100, seed=0):
            assert check.holds

    def test_sampled_validation(self):
        with pytest.raises(ConfigurationError):
            list(check_bounds_sampled(CyclicRepetition(4, 2), 9, trials=1))


class TestReporting:
    def test_table_render_contains_cells(self):
        t = Table(title="T", columns=["a", "b"])
        t.add_row(1, "x")
        t.add_row(2.5, "y")
        text = t.render()
        assert "T" in text and "a" in text and "2.5" in text and "y" in text

    def test_table_row_width_mismatch(self):
        t = Table(title="T", columns=["a", "b"])
        with pytest.raises(ConfigurationError):
            t.add_row(1)

    def test_table_render_empty(self):
        t = Table(title="T", columns=["a"])
        assert "T" in t.render()

    def test_table_show_prints(self, capsys):
        t = Table(title="Demo", columns=["x"])
        t.add_row(1)
        t.show()
        assert "Demo" in capsys.readouterr().out

"""Tests for the beyond-the-paper experiment harnesses."""

import pytest

from repro.experiments import enduring_straggler_study, enduring_straggler_table


class TestEnduringStraggler:
    @pytest.fixture(scope="class")
    def points(self):
        return enduring_straggler_study(trials=800, seed=1)

    def test_covers_both_placements(self, points):
        assert {p.placement for p in points} == {"fr", "cr"}

    def test_persistent_brackets_iid(self, points):
        for p in points:
            assert (
                p.persistent_worst_pct - 1e-9
                <= p.iid_recovery_pct
                <= p.persistent_best_pct + 1e-9
            )

    def test_paper_effect_at_w2(self, points):
        """A well-placed enduring straggler pushes w=2 recovery to 100%
        (the Sec. VIII-C '99.6%' observation)."""
        for p in points:
            if p.wait_for == 2:
                assert p.persistent_best_pct == pytest.approx(100.0)
                assert p.iid_recovery_pct < 100.0

    def test_table_renders(self):
        table = enduring_straggler_table(trials=200)
        assert "persistent best" in table.render()


class TestRunnerIntegration:
    def test_extra_registered(self):
        from repro.experiments.runner import EXPERIMENTS
        assert "extra" in EXPERIMENTS

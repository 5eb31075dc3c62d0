"""Tests for multi-trial statistics."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import summarize_trials
from repro.analysis.stats import _t_critical
from repro.exceptions import ConfigurationError


class TestSummarizeTrials:
    def test_mean_and_count(self):
        s = summarize_trials([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)

    def test_ci_contains_mean(self):
        s = summarize_trials([4.0, 5.0, 6.0, 7.0])
        assert s.ci_low <= s.mean <= s.ci_high

    def test_ci_symmetric(self):
        s = summarize_trials([1.0, 3.0, 5.0])
        assert (s.mean - s.ci_low) == pytest.approx(s.ci_high - s.mean)

    def test_single_trial_degenerate(self):
        s = summarize_trials([2.5])
        assert s.ci_low == s.ci_high == s.mean == 2.5

    def test_constant_trials_zero_width(self):
        s = summarize_trials([3.0, 3.0, 3.0])
        assert s.ci_low == pytest.approx(3.0)
        assert s.ci_high == pytest.approx(3.0)

    def test_more_trials_narrower_ci(self):
        rng = np.random.default_rng(0)
        small = summarize_trials(rng.normal(size=5).tolist())
        large = summarize_trials(rng.normal(size=200).tolist())
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_ci_coverage_empirical(self):
        """~95% of CIs from N(0,1) samples should contain 0."""
        rng = np.random.default_rng(1)
        hits = 0
        trials = 400
        for _ in range(trials):
            s = summarize_trials(rng.normal(size=10).tolist())
            if s.ci_low <= 0.0 <= s.ci_high:
                hits += 1
        assert hits / trials == pytest.approx(0.95, abs=0.04)

    def test_format(self):
        assert "±" in summarize_trials([1.0, 2.0]).format()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            summarize_trials([])


class TestTCritical:
    """The 95 % t quantile is a table, not scipy (a dev-only extra)."""

    A = [10.2, 11.5, 9.8, 10.9, 12.1, 10.4]

    def test_pinned_df2(self):
        # Fig. 12's three trials: df = 2.
        assert _t_critical(2) == pytest.approx(4.302653, abs=1e-6)

    def test_normal_quantile_above_df30(self):
        assert _t_critical(31) == _t_critical(1000) == pytest.approx(
            1.959964, abs=1e-6
        )

    def test_identical_without_scipy(self, monkeypatch):
        with_scipy = summarize_trials(self.A)
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        with pytest.raises(ImportError):
            import scipy.stats  # noqa: F401
        assert summarize_trials(self.A) == with_scipy

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for df in range(1, 31):
            assert _t_critical(df) == pytest.approx(
                float(stats.t.ppf(0.975, df)), abs=1e-6
            )


class TestLazyScipy:
    """The library never imports scipy."""

    A = [10.2, 11.5, 9.8, 10.9, 12.1, 10.4]

    def test_import_repro_does_not_import_scipy(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys, repro, repro.analysis.stats; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_values_unchanged_from_the_module_level_import(self):
        # Recorded when the quantile came from scipy.stats.t.ppf.
        s95 = summarize_trials(self.A)
        assert (s95.mean, s95.std) == (10.816666666666668, 0.8612007121842541)
        assert (s95.ci_low, s95.ci_high) == (
            9.912891946196709, 11.720441387136628
        )

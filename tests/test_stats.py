"""Tests for multi-trial statistics."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis import (
    bootstrap_ci,
    paired_comparison,
    summarize_trials,
)
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
        with pytest.raises(ConfigurationError):
            summarize_trials([1.0], confidence=1.5)


class TestPairedComparison:
    def test_direction(self):
        a = [1.0, 1.1, 0.9, 1.0]
        b = [2.0, 2.1, 1.9, 2.0]
        comp = paired_comparison(a, b)
        assert comp.mean_difference == pytest.approx(1.0)
        assert comp.significant

    def test_no_difference_not_significant(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=20)
        noise_a = base + 0.01 * rng.normal(size=20)
        noise_b = base + 0.01 * rng.normal(size=20)
        comp = paired_comparison(noise_a.tolist(), noise_b.tolist())
        assert not comp.significant

    def test_pairing_beats_trace_variance(self):
        """The point of pairing: shared trace noise cancels out."""
        rng = np.random.default_rng(3)
        trace_noise = 10.0 * rng.normal(size=12)  # dominates
        a = trace_noise + 1.0 + 0.1 * rng.normal(size=12)
        b = trace_noise + 1.5 + 0.1 * rng.normal(size=12)
        comp = paired_comparison(a.tolist(), b.tolist())
        assert comp.significant
        assert comp.mean_difference == pytest.approx(0.5, abs=0.15)

    def test_p_value_present_with_scipy(self):
        comp = paired_comparison([1.0, 2.0, 3.0], [2.0, 3.0, 4.5])
        assert comp.p_value is not None
        assert 0.0 <= comp.p_value <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            paired_comparison([1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            paired_comparison([1.0], [1.0])


class TestBootstrap:
    def test_ci_contains_true_mean(self):
        rng = np.random.default_rng(4)
        values = (5.0 + rng.normal(size=100)).tolist()
        lo, hi = bootstrap_ci(values, seed=1)
        assert lo <= 5.1 and hi >= 4.9

    def test_custom_statistic(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        lo, hi = bootstrap_ci(values, statistic=np.median, seed=2)
        assert lo >= 1.0 and hi <= 100.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bootstrap_ci([])
        with pytest.raises(ConfigurationError):
            bootstrap_ci([1.0], resamples=0)


class TestLazyScipy:
    """``scipy.stats`` loads inside the two functions that use it."""

    A = [10.2, 11.5, 9.8, 10.9, 12.1, 10.4]
    B = [11.0, 12.4, 10.1, 11.9, 12.8, 11.6]

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
        # Recorded at the parent commit (scipy imported at module top).
        pytest.importorskip("scipy")
        s95 = summarize_trials(self.A)
        assert (s95.mean, s95.std) == (10.816666666666668, 0.8612007121842541)
        assert (s95.ci_low, s95.ci_high) == (
            9.912891946196709, 11.720441387136628
        )
        s90 = summarize_trials(self.A, 0.9)
        assert (s90.ci_low, s90.ci_high) == (
            10.108208466621969, 11.525124866711367
        )
        comp = paired_comparison(self.A, self.B)
        assert comp.mean_difference == 0.8166666666666668
        assert (comp.ci_low, comp.ci_high) == (
            0.49548677906379784, 1.1378465542695357
        )
        assert comp.p_value == 0.00125453315968422

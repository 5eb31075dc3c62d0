"""Multi-trial statistics for experiment reporting.

The paper averages 10 cloud trials per point (Sec. VIII-C).  This
module provides the aggregation the harnesses use when trial counts
matter: means with confidence intervals (Student-t via scipy when
available, normal approximation otherwise) and paired scheme
comparisons (the right test when every scheme replays the same delay
traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError


def _scipy_stats():
    """``scipy.stats``, or ``None`` without scipy (a dev dependency).

    Imported by the two functions that need it, not at module import:
    it costs most of a second that every ``import repro`` would pay.
    """
    try:
        from scipy import stats
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    return stats


@dataclass(frozen=True)
class TrialSummary:
    """Mean ± confidence interval over independent trials."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    def format(self, digits: int = 3) -> str:
        """Render as ``mean ± half-width``."""
        half = (self.ci_high - self.ci_low) / 2
        return f"{self.mean:.{digits}g} ± {half:.{digits}g}"


def _t_critical(df: int, confidence: float) -> float:
    scipy_stats = _scipy_stats()
    if scipy_stats is not None:
        return float(scipy_stats.t.ppf(0.5 + confidence / 2, df))
    # Normal approximation is adequate for df ≥ 30; below that it
    # understates the interval slightly — documented fallback.
    z_table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
    return z_table.get(round(confidence, 2), 1.9600)


def summarize_trials(
    values: Sequence[float], confidence: float = 0.95
) -> TrialSummary:
    """Mean and Student-t confidence interval of trial outcomes."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("no trial values to summarise")
    mean = float(arr.mean())
    if arr.size == 1:
        return TrialSummary(1, mean, 0.0, mean, mean, confidence)
    std = float(arr.std(ddof=1))
    half = _t_critical(arr.size - 1, confidence) * std / math.sqrt(arr.size)
    return TrialSummary(
        count=arr.size,
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        confidence=confidence,
    )


@dataclass(frozen=True)
class PairedComparison:
    """Paired-trial comparison of two schemes on shared traces."""

    mean_difference: float  # mean(b − a): positive means b is larger
    ci_low: float
    ci_high: float
    p_value: float | None  # None without scipy

    @property
    def significant(self) -> bool:
        """CI excludes zero (two-sided, at the chosen confidence)."""
        return self.ci_low > 0 or self.ci_high < 0


def paired_comparison(
    scheme_a: Sequence[float],
    scheme_b: Sequence[float],
    confidence: float = 0.95,
) -> PairedComparison:
    """Paired difference ``b − a`` per trial, with CI and t-test.

    Pairing removes trace-to-trace variance, which dominates straggler
    experiments — the reason every harness replays shared traces.
    """
    a = np.asarray(list(scheme_a), dtype=float)
    b = np.asarray(list(scheme_b), dtype=float)
    if a.size != b.size:
        raise ConfigurationError(
            "paired comparison needs equal trial counts, "
            f"got {a.size} and {b.size}"
        )
    if a.size < 2:
        raise ConfigurationError("need at least 2 paired trials")
    diff = b - a
    summary = summarize_trials(diff.tolist(), confidence)
    p_value = None
    scipy_stats = _scipy_stats()
    if scipy_stats is not None:
        if np.allclose(diff, diff[0]):
            p_value = 0.0 if diff[0] != 0 else 1.0
        else:
            p_value = float(scipy_stats.ttest_rel(b, a).pvalue)
    return PairedComparison(
        mean_difference=summary.mean,
        ci_low=summary.ci_low,
        ci_high=summary.ci_high,
        p_value=p_value,
    )


def bootstrap_ci(
    values: Sequence[float],
    statistic=np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap CI for an arbitrary statistic.

    Used for quantities with awkward distributions (p95 step time,
    steps-to-threshold) where normality is a bad fit.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("no values to bootstrap")
    if resamples <= 0:
        raise ConfigurationError(f"resamples must be positive, got {resamples}")
    rng = np.random.default_rng(seed)
    stats = np.array([
        statistic(arr[rng.integers(arr.size, size=arr.size)])
        for _ in range(resamples)
    ])
    alpha = (1.0 - confidence) / 2
    return (
        float(np.quantile(stats, alpha)),
        float(np.quantile(stats, 1.0 - alpha)),
    )

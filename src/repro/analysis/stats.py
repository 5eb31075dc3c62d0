"""Multi-trial statistics for experiment reporting.

The paper averages 10 cloud trials per point (Sec. VIII-C).  This
module provides the aggregation the harnesses use when trial counts
matter: means with 95 % Student-t confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError

#: Two-sided 95 % Student-t quantiles ``t_{0.975, df}`` for df = 1..30,
#: the values ``scipy.stats.t.ppf(0.975, df)`` returns, so intervals do
#: not depend on whether scipy is installed.
_T95 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)
#: The normal quantile ``z_{0.975}``, used above df = 30.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TrialSummary:
    """Mean ± 95 % confidence interval over independent trials."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    def format(self, digits: int = 3) -> str:
        """Render as ``mean ± half-width``."""
        half = (self.ci_high - self.ci_low) / 2
        return f"{self.mean:.{digits}g} ± {half:.{digits}g}"


def _t_critical(df: int) -> float:
    """The two-sided 95 % Student-t quantile for ``df >= 1`` degrees of
    freedom (the normal quantile above df = 30)."""
    return _T95[df - 1] if df <= len(_T95) else _Z95


def summarize_trials(values: Sequence[float]) -> TrialSummary:
    """Mean and 95 % Student-t confidence interval of trial outcomes."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("no trial values to summarise")
    mean = float(arr.mean())
    if arr.size == 1:
        return TrialSummary(1, mean, 0.0, mean, mean)
    std = float(arr.std(ddof=1))
    half = _t_critical(arr.size - 1) * std / math.sqrt(arr.size)
    return TrialSummary(
        count=arr.size,
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
    )

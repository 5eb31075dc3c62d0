"""Record-level aggregation helpers.

The summary statistics are computed through :class:`MetricsRegistry`
instruments so they share one implementation with live-run metrics:
``StepStatistics.from_records`` is exactly a histogram of the per-step
clock increments plus two means, and reading it back through the
registry keeps the numbers identical to what a tracer-instrumented run
would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..types import StepRecord
from .registry import MetricsRegistry


@dataclass(frozen=True)
class StepStatistics:
    """Summary statistics over a sequence of step records."""

    count: int
    mean_step_time: float
    p50_step_time: float
    p95_step_time: float
    mean_recovery_fraction: float
    mean_available: float
    total_time: float

    @classmethod
    def from_records(cls, records: Sequence[StepRecord]) -> "StepStatistics":
        """Aggregate ``records`` (per-step clock increments) exactly.

        Implemented over a private :class:`MetricsRegistry` sized to the
        record count, so every observation is retained and the quantiles
        are exact (no reservoir sampling).
        """
        if not records:
            raise ValueError("no step records to summarise")
        registry = MetricsRegistry()
        # Step times are the per-step increments of the simulated clock.
        times = registry.histogram("step_time", max_samples=len(records))
        recovery = registry.histogram("recovery", max_samples=len(records))
        available = registry.histogram("available", max_samples=len(records))
        for r in records:
            times.observe(r.wait_time)
            recovery.observe(r.recovery_fraction)
            available.observe(r.num_available)
        return cls(
            count=times.count,
            mean_step_time=float(times.mean),
            p50_step_time=times.p50,
            p95_step_time=times.p95,
            mean_recovery_fraction=float(recovery.mean),
            mean_available=float(available.mean),
            total_time=float(times.total),
        )


def steps_to_threshold(
    losses: Iterable[float], threshold: float
) -> int | None:
    """First 1-based step index whose loss is ≤ ``threshold``; ``None``
    when the run never got there."""
    for idx, loss in enumerate(losses, start=1):
        if loss <= threshold:
            return idx
    return None


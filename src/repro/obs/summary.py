"""Re-aggregation of round traces into per-scheme statistics.

This is the read path of the observability layer: given traces — live
from a :class:`~repro.obs.tracer.RoundTracer` or loaded back from JSONL
— compute the quantities the paper's evaluation revolves around (mean
step time, recovery fraction) plus the operational ones (accepted
counts, decode search effort, wasted compute).

Aggregation is a pure function of the traces (``numpy`` means over
the full series), so an exported-then-reloaded trace summarises to
exactly the numbers the live tracer's traces give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..exceptions import ObservabilityError
from .events import RoundTrace


@dataclass(frozen=True)
class SchemeAggregate:
    """Summary statistics for every traced round of one scheme."""

    scheme: str
    rounds: int
    mean_step_time: float
    p50_step_time: float
    p95_step_time: float
    p99_step_time: float
    mean_accepted: float
    total_wasted_compute: float
    #: ``None`` when no round of this scheme was decoded.
    mean_recovery_fraction: Optional[float]
    mean_num_searches: Optional[float]
    decoded_rounds: int

    @classmethod
    def from_traces(
        cls, scheme: str, traces: Sequence[RoundTrace]
    ) -> "SchemeAggregate":
        if not traces:
            raise ObservabilityError(
                f"no traces to aggregate for scheme {scheme!r}"
            )
        times = np.array([t.step_time for t in traces])
        decoded = [t for t in traces if t.recovery_fraction is not None]
        return cls(
            scheme=scheme,
            rounds=len(traces),
            mean_step_time=float(times.mean()),
            p50_step_time=float(np.percentile(times, 50)),
            p95_step_time=float(np.percentile(times, 95)),
            p99_step_time=float(np.percentile(times, 99)),
            mean_accepted=float(
                np.mean([t.num_accepted for t in traces])
            ),
            total_wasted_compute=float(
                np.sum([t.wasted_compute for t in traces])
            ),
            mean_recovery_fraction=(
                float(np.mean([t.recovery_fraction for t in decoded]))
                if decoded else None
            ),
            mean_num_searches=(
                float(np.mean([t.num_searches for t in decoded]))
                if decoded else None
            ),
            decoded_rounds=len(decoded),
        )


def aggregate_traces(
    traces: Iterable[RoundTrace],
) -> Dict[str, SchemeAggregate]:
    """Group traces by scheme label and summarise each group.

    The returned dict preserves first-seen scheme order (insertion
    order), which matches the order schemes were run.
    """
    by_scheme: Dict[str, List[RoundTrace]] = {}
    for trace in traces:
        by_scheme.setdefault(trace.scheme, []).append(trace)
    if not by_scheme:
        raise ObservabilityError("no traces to aggregate")
    return {
        scheme: SchemeAggregate.from_traces(scheme, group)
        for scheme, group in by_scheme.items()
    }

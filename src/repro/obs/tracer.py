"""The active half of the observability layer: :class:`RoundTracer`.

A tracer is handed to the :class:`~repro.simulation.ClusterSimulator`
(and, transitively, trainers and experiment runners).  The simulator
records the timing half of each round; whoever decodes the round —
trainer, experiment, CLI — enriches the same trace with the decode
outcome.  The traces are the one record of a run: headline
distributions (step time, recovery, search counts) come from them via
:func:`~repro.obs.summary.aggregate_traces`.

The default everywhere is *no tracer* (``None``), which costs one
``is None`` check per round.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ..exceptions import ObservabilityError
from .events import RoundTrace

# WaitOutcome is only needed for type checking; import lazily to keep
# obs importable without the simulation package (and cycle-free).
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation.policies import WaitOutcome


class RoundTracer:
    """Collects one :class:`RoundTrace` per simulated round.

    Parameters
    ----------
    scheme:
        Initial context label stamped on recorded rounds; usually set
        (and re-set) via :meth:`set_context` as runs switch schemes.
    """

    def __init__(self, scheme: str = ""):
        self._scheme = scheme
        self._traces: List[RoundTrace] = []
        # Index of the most recent trace per (scheme, step), so decode
        # enrichment is O(1) even on long runs.
        self._latest: Dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    @property
    def scheme(self) -> str:
        return self._scheme

    @property
    def traces(self) -> List[RoundTrace]:
        return list(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def set_context(self, scheme: str) -> None:
        """Label subsequently recorded rounds with ``scheme``."""
        self._scheme = scheme

    def clear(self) -> None:
        """Drop all recorded traces."""
        self._traces = []
        self._latest = {}

    # ------------------------------------------------------------------
    def record_round(
        self,
        step: int,
        arrivals: Mapping[int, float],
        outcome: "WaitOutcome",
        policy: str,
        step_start: float,
        step_end: float,
        wasted_compute: float = 0.0,
    ) -> RoundTrace:
        """Record the simulator-side facts of one round.

        ``arrivals`` and ``outcome.proceed_time`` are step-relative
        seconds (the simulator's convention); ``step_start`` /
        ``step_end`` are absolute.
        """
        trace = RoundTrace(
            step=step,
            scheme=self._scheme,
            step_start=step_start,
            step_end=step_end,
            arrivals=dict(arrivals),
            accepted_workers=tuple(sorted(outcome.accepted_workers)),
            policy=policy,
            proceed_time=outcome.proceed_time,
            wasted_compute=wasted_compute,
        )
        self._latest[(self._scheme, step)] = len(self._traces)
        self._traces.append(trace)
        return trace

    def record_decode(
        self,
        step: int,
        decoder_scheme: str,
        num_searches: int,
        num_recovered: int,
        num_partitions: int,
    ) -> RoundTrace:
        """Attach the decode outcome to the round recorded for ``step``
        under the current scheme context."""
        key = (self._scheme, step)
        idx = self._latest.get(key)
        if idx is None:
            raise ObservabilityError(
                f"no recorded round for scheme={self._scheme!r} "
                f"step={step}; record_round must precede record_decode"
            )
        enriched = self._traces[idx].with_decode(
            decoder_scheme=decoder_scheme,
            num_searches=num_searches,
            num_recovered=num_recovered,
            num_partitions=num_partitions,
        )
        self._traces[idx] = enriched
        return enriched

    # ------------------------------------------------------------------
    def export_jsonl(self, path) -> int:
        """Write all recorded traces to ``path`` (one JSON per line).

        Returns the number of records written.  Convenience wrapper
        around :func:`repro.obs.jsonl.write_traces`.
        """
        from .jsonl import write_traces

        return write_traces(path, self._traces)


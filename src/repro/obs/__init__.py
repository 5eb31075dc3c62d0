"""repro.obs — round-level observability: metrics, traces, aggregation.

The subsystem has a passive half and an active half:

* :mod:`~repro.obs.registry` — named counters/gauges/streaming
  histograms with a zero-cost no-op default (:data:`NULL_REGISTRY`);
* :mod:`~repro.obs.events` / :mod:`~repro.obs.tracer` — one typed
  :class:`RoundTrace` per simulated round, recorded by the cluster
  simulator and enriched with decode outcomes by trainers/experiments;
* :mod:`~repro.obs.jsonl` — lossless JSONL export/import;
* :mod:`~repro.obs.summary` — per-scheme re-aggregation that exactly
  reproduces live statistics from an exported trace.

Typical use::

    from repro.obs import RoundTracer, aggregate_traces

    tracer = RoundTracer()
    sim = Environment(...).simulator(n, c, rng=rng, tracer=tracer)
    ...
    tracer.export_jsonl("run.jsonl")
    aggregates = aggregate_traces(read_traces("run.jsonl"))
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from .events import RoundTrace, TRACE_SCHEMA_VERSION
from .tracer import RoundTracer
from .jsonl import (
    TraceStreamWriter,
    read_traces,
    truncate_traces,
    write_traces,
)
from .summary import SchemeAggregate, aggregate_traces

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "RoundTrace",
    "TRACE_SCHEMA_VERSION",
    "RoundTracer",
    "read_traces",
    "truncate_traces",
    "write_traces",
    "TraceStreamWriter",
    "SchemeAggregate",
    "aggregate_traces",
]

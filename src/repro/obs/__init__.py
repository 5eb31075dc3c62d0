"""repro.obs — round-level observability: traces and their aggregation.

The round trace is the one record of a run; everything else is read
from it:

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

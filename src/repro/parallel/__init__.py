"""``repro.parallel`` — deterministic fan-out for grid sweeps.

Two pieces:

* :class:`SweepExecutor` / :class:`SerialExecutor` /
  :class:`ProcessExecutor` — pluggable evaluation strategies for
  independent grid points, with parent-side
  ``SeedSequence.spawn`` seeding (a :class:`PointTask` refuses any
  other seed or a ``Generator`` parameter, and ``run`` a partial that
  binds one), chunked scheduling, per-point failure isolation, and
  per-point progress events (``on_event``);
* :class:`DecodeCache` — an LRU memo for the decode searches worth
  memoising (the exact-MIS decoder's optima, classic GC's decode
  vectors), keyed on (placement fingerprint, survivor set),
  bit-for-bit transparent because fairness RNG draws stay live.

See ``docs/parallelism.md`` for the executor model, the seeding
discipline and its guards, and cache semantics.
"""

from .cache import DecodeCache
from .executor import (
    ExecutionError,
    PointOutcome,
    PointTask,
    ProcessExecutor,
    ProgressCallback,
    SerialExecutor,
    SweepEvent,
    SweepExecutor,
    evaluate_point,
    spawn_point_seeds,
)

__all__ = [
    "DecodeCache",
    "ExecutionError",
    "PointOutcome",
    "PointTask",
    "ProcessExecutor",
    "ProgressCallback",
    "SerialExecutor",
    "SweepEvent",
    "SweepExecutor",
    "evaluate_point",
    "spawn_point_seeds",
]

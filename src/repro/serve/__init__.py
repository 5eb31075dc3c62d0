"""Multi-job serving layer: one coordinator, many experiments.

:mod:`repro.serve` turns the single-run engine into a job service: an
asyncio :class:`Coordinator` admits many :class:`~repro.engine.ExperimentSpec`
jobs at once, interleaves their rounds under a fair (smooth weighted
round-robin) scheduler, isolates failures, supports cancellation at
round boundaries (``repro cancel`` included), and streams each job's
round trace as JSONL.

Entry points:

* :func:`run_jobs` — submit a batch of specs and collect
  :class:`~repro.engine.RunReport` results (the one-call API);
* :class:`Coordinator` — long-lived, incremental submissions,
  ``await handle.result()`` / ``async for event in handle.watch()``;
* :class:`CoordinatorClient` + ``repro serve`` / ``repro submit`` /
  ``repro jobs`` / ``repro cancel`` — cross-process, over a file
  mailbox.

Jobs are *suspendable values*: every engine round boundary can be
snapshotted to a JSON-safe :class:`~repro.engine.EngineState`, which is
how the shared :class:`WorkerPool` multiplexes more jobs than live
engines, how ``checkpoints/`` mailbox records survive a coordinator
kill, and why a resumed job's trajectory and trace are bit-identical
to an uninterrupted run.  :class:`SchedulingClass` adds priority tiers
and earliest-deadline-first tie-breaking on top of the fair scheduler.

Quanta run inline on the event loop, one at a time, and any
interleaving of N jobs is bit-for-bit identical to N sequential
``repro run`` invocations; see ``docs/serving.md``.
"""

from .coordinator import Coordinator, run_jobs
from .jobs import (
    JobCancelledError,
    JobEvent,
    JobFailedError,
    JobHandle,
    JobState,
)
from .mailbox import (
    CheckpointRecord,
    CoordinatorClient,
    ServeMailbox,
    Submission,
)
from .pool import PoolStats, WorkerPool
from .runner import JobRunner
from .scheduler import (
    DEFAULT_CLASS,
    FairScheduler,
    RandomOrderScheduler,
    Scheduler,
    SchedulingClass,
)

__all__ = [
    "Coordinator",
    "run_jobs",
    "JobState",
    "JobEvent",
    "JobHandle",
    "JobFailedError",
    "JobCancelledError",
    "JobRunner",
    "Scheduler",
    "FairScheduler",
    "RandomOrderScheduler",
    "SchedulingClass",
    "DEFAULT_CLASS",
    "WorkerPool",
    "PoolStats",
    "ServeMailbox",
    "CoordinatorClient",
    "Submission",
    "CheckpointRecord",
]

"""Shared engine slots for multiplexed jobs: :class:`WorkerPool`.

A coordinator may hold far more admitted jobs than it can keep as live
engines.  An engine is two halves (:mod:`repro.engine.plan`): the
immutable, spec-derived *plan* (dataset, batch streams, placement,
code — expensive to derive) and the *state* a run advances (model,
generators, simulator, open trace stream).  The pool bounds how many
live engines exist at once and multiplexes all jobs over them:

* ``acquire(job)`` returns the job's resident runner (a *hit*), or
  makes one resident (a *build*): first from the spec, which leaves
  the plan on the job; after an eviction from that plan plus the
  job's checkpoint (a *restore*) — mutable state only;
* ``release(job)`` hands the runner back after its quantum; when
  residency then exceeds ``capacity``, the most recently released job
  is *evicted*: its engine state is snapshotted onto the job record
  (:attr:`~repro.serve.jobs.Job.checkpoint_state`) and the engine
  discarded.  Under the scheduler's cyclic round-robin the job just
  run is the one needed last, so parking it keeps the first
  ``capacity`` jobs resident and bounces only the overflow (LRU would
  miss on every quantum).  A parked job is plan + state until it turns
  terminal; ``max_running`` therefore bounds the plans alive.

The coordinator runs one quantum at a time and releases or discards
the job before the next ``acquire``, so no engine is ever in use while
the pool shrinks.

Because eviction goes through the same
:class:`~repro.engine.EngineState` snapshot/restore path as coordinator
crash recovery, a pooled job's trajectory is bit-for-bit identical no
matter how many times it bounced out of the pool — the determinism
tests pin this.  ``capacity=0`` degenerates to a per-quantum
snapshot/re-instantiate cycle; the plan is still derived once per job.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..exceptions import ServeError
from .runner import JobRunner

if TYPE_CHECKING:  # pragma: no cover
    from .jobs import Job


@dataclass
class PoolStats:
    """Counters for pool effectiveness (surfaced by the benchmark)."""

    builds: int = 0
    restores: int = 0
    hits: int = 0
    evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (benchmark/report payloads)."""
        return {
            "builds": self.builds,
            "restores": self.restores,
            "hits": self.hits,
            "evictions": self.evictions,
        }


class WorkerPool:
    """A bounded set of live job engines that parks the job just run.

    Parameters
    ----------
    capacity:
        Maximum resident engines (``>= 0``).  ``0`` forces a
        snapshot/re-instantiate round-trip on every quantum —
        functionally identical, one live engine at a time.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 0:
            raise ServeError(
                f"pool capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        # Resident jobs (each holding its ``job.runner``), in release
        # order.
        self._slots: "OrderedDict[str, Job]" = OrderedDict()
        self.stats = PoolStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slots)

    def resident(self, job_id: str) -> bool:
        """Whether ``job_id`` currently holds a live engine."""
        return job_id in self._slots

    # ------------------------------------------------------------------
    def acquire(self, job: "Job") -> JobRunner:
        """The job's live runner, instantiated from the job's plan and
        checkpoint if it was evicted."""
        if job.job_id in self._slots:
            self.stats.hits += 1
            return job.runner
        runner = JobRunner(
            job.spec,
            trace_path=job.trace_path,
            trace_context=job.name,
            checkpoint=job.checkpoint_state,
            plan=job.plan,
        )
        job.plan = runner.plan
        if job.checkpoint_state is not None:
            self.stats.restores += 1
            job.checkpoint_state = None
        self.stats.builds += 1
        self._slots[job.job_id] = job
        job.runner = runner
        return runner

    def release(self, job: "Job") -> None:
        """Mark the job just run and shrink residency back to capacity."""
        if job.job_id not in self._slots:
            return
        self._slots.move_to_end(job.job_id)
        self._shrink()

    def discard(self, job: "Job") -> None:
        """Drop a terminal job's engine without snapshotting it."""
        if self._slots.pop(job.job_id, None) is not None:
            job.runner = None

    def _park(self, job: "Job") -> None:
        """Snapshot the job's engine onto the job and drop the engine."""
        runner = job.runner
        if not runner.finished:
            job.checkpoint_state = runner.checkpoint()
        runner.release()
        job.runner = None
        self.stats.evictions += 1

    def _shrink(self) -> None:
        """Park the most recently released jobs until residency fits
        capacity.

        Slots are kept in release order, so the victim is the last one:
        for a cyclic pick order that is the job whose next quantum is
        furthest away (Belady's choice).
        """
        while len(self._slots) > self.capacity:
            self._park(self._slots.popitem()[1])

    def clear(self) -> None:
        """Park every resident job (coordinator shutdown)."""
        while self._slots:
            self._park(self._slots.popitem(last=False)[1])

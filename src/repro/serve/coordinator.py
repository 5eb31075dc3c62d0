"""The asyncio multi-job coordinator: :class:`Coordinator`.

One coordinator hosts many simultaneous training jobs — each a full
:class:`~repro.engine.ExperimentSpec` with its own placement scheme,
environment, round engine and seed — and interleaves their rounds over
one event loop under a fair scheduler:

* **admission control** — at most ``queue_limit`` non-terminal jobs;
  submissions beyond that are rejected with :class:`ServeError`;
* **scheduling** — up to ``max_running`` jobs hold RUNNING state; each
  quantum (one engine round) goes to the job the pluggable
  :class:`~repro.serve.scheduler.Scheduler` picks (default: smooth
  weighted round-robin, starvation-free);
* **lifecycle** — ``submit → QUEUED → RUNNING → DONE/FAILED/CANCELLED``
  with per-job failure isolation and round-boundary cancellation;
* **observability** — per-job JSONL round-trace streaming through
  :class:`~repro.obs.TraceStreamWriter`, plus in-process
  :meth:`JobHandle.watch` event streams.

Quanta run inline on the event-loop thread, one at a time, and the
loop yields between them, so submissions, cancellations, watchers and
(while :meth:`Coordinator.serve` runs) the file mailbox are all served
at round boundaries.  Because every job's RNG streams, decode cache and
simulated clock are private to its engine, **any** interleaving of
quanta yields bit-for-bit the trajectories of sequential ``repro run``
invocations — the property the test suite pins with hypothesis.

Simulated time and wall time never mix: job results carry only their
engines' simulated clocks (the ``DET002`` static check patrols this
boundary).
"""

from __future__ import annotations

import asyncio
import itertools
import pathlib
import traceback
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..engine.spec import ExperimentSpec
from ..exceptions import AdmissionError, ServeError
from .jobs import Job, JobEvent, JobHandle, JobState
from .pool import WorkerPool
from .mailbox import job_fields
from .scheduler import FairScheduler, Scheduler, SchedulingClass

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.report import RunReport
    from .mailbox import ServeMailbox


class Coordinator:
    """Hosts and fairly schedules many concurrent training jobs.

    Parameters
    ----------
    mode:
        Accepts only ``"deterministic"``, the one execution path; kept
        for callers that still name it.
    max_running:
        How many jobs may hold RUNNING state at once.
    queue_limit:
        Admission bound on non-terminal jobs (queued + running).
    scheduler:
        Quantum scheduler; defaults to the smooth weighted round-robin
        :class:`~repro.serve.scheduler.FairScheduler`.
    trace_dir:
        When set, every job streams its round trace to
        ``<trace_dir>/<job_id>.jsonl`` unless submitted with
        ``trace=False``.
    pool_capacity:
        How many live engines the shared :class:`WorkerPool` keeps
        resident; jobs beyond that are parked as their
        :class:`~repro.engine.plan.EnginePlan` plus an
        :class:`~repro.engine.EngineState` snapshot and resumed
        bit-identically on their next quantum.  Defaults to
        ``max_running``.
    """

    def __init__(
        self,
        *,
        mode: str = "deterministic",
        max_running: int = 4,
        queue_limit: int = 64,
        scheduler: Optional[Scheduler] = None,
        trace_dir: "str | pathlib.Path | None" = None,
        pool_capacity: Optional[int] = None,
    ):
        if mode != "deterministic":
            raise ServeError(
                f"unknown coordinator mode {mode!r}; quanta always run "
                "inline ('deterministic')"
            )
        if max_running <= 0:
            raise ServeError(
                f"max_running must be positive, got {max_running}"
            )
        if queue_limit <= 0:
            raise ServeError(
                f"queue_limit must be positive, got {queue_limit}"
            )
        self.max_running = max_running
        self.queue_limit = queue_limit
        self.scheduler: Scheduler = (
            scheduler if scheduler is not None else FairScheduler()
        )
        self.trace_dir = (
            pathlib.Path(trace_dir) if trace_dir is not None else None
        )
        self.pool = WorkerPool(
            capacity=(
                pool_capacity if pool_capacity is not None else max_running
            )
        )
        # Every job ever submitted, and the non-terminal ones; both in
        # admission (``seq``) order, so scheduling never sorts or scans
        # finished jobs.
        self._jobs: Dict[str, Job] = {}
        self._live: Dict[str, Job] = {}
        self._seq = itertools.count()
        self._mailbox: "ServeMailbox | None" = None
        self._closed = False

    # ------------------------------------------------------------------
    # Submission / admission control
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: "ExperimentSpec | str | pathlib.Path",
        *,
        name: Optional[str] = None,
        weight: Optional[int] = None,
        trace: Optional[bool] = None,
        job_id: Optional[str] = None,
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
        scheduling_class: Optional[SchedulingClass] = None,
    ) -> JobHandle:
        """Admit one job; returns its :class:`JobHandle`.

        ``spec`` may be a spec object or a ``.json``/``.toml`` path
        (loaded through :meth:`ExperimentSpec.from_file`, so submission
        payloads get the same validation + did-you-mean errors).
        ``scheduling_class`` supplies default weight/priority/deadline;
        the explicit keyword arguments override it field by field.
        Raises :class:`~repro.exceptions.AdmissionError` (carrying the
        queue depth and a retry hint) when the queue is full, and
        :class:`ServeError` when the weight or deadline is invalid or
        the coordinator is closed.
        """
        job = self._admit(
            spec, name=name, weight=weight, trace=trace, job_id=job_id,
            priority=priority, deadline=deadline,
            scheduling_class=scheduling_class,
        )
        if self._mailbox is not None:
            self._mailbox.write_checkpoint(job, None)
        return JobHandle(self, job)

    def _admit(
        self,
        spec: "ExperimentSpec | str | pathlib.Path",
        *,
        name: Optional[str],
        weight: Optional[int],
        trace: Optional[bool],
        job_id: Optional[str],
        priority: Optional[int],
        deadline: Optional[float],
        scheduling_class: Optional[SchedulingClass] = None,
    ) -> Job:
        """Validate and register one job (QUEUED); persists nothing, so
        re-admission keeps the checkpoint it resumes from."""
        if self._closed:
            raise ServeError("coordinator is closed; no new submissions")
        if not isinstance(spec, ExperimentSpec):
            spec = ExperimentSpec.from_file(spec)
        sched = scheduling_class
        if weight is None:
            weight = sched.weight if sched is not None else 1
        if priority is None:
            priority = sched.priority if sched is not None else 0
        if deadline is None and sched is not None:
            deadline = sched.deadline
        # The type rule inbox entries and checkpoint heads go through:
        # a weight of 2.7 or a priority of True is refused, not coerced.
        fields = job_fields(
            "job" if job_id is None else f"job {job_id!r}",
            dict(weight=weight, priority=priority, deadline=deadline),
            "weight", "priority", "deadline",
        )
        weight, priority = fields["weight"], fields["priority"]
        deadline = fields["deadline"]
        if weight < 1:
            raise ServeError(f"job weight must be >= 1, got {weight}")
        active = len(self._live)
        if active >= self.queue_limit:
            raise AdmissionError(
                f"admission rejected: {active} active jobs at the "
                f"queue limit ({self.queue_limit})",
                reason="queue_limit",
                queue_depth=active,
                queue_limit=self.queue_limit,
                retry_hint=(
                    "resubmit after a job reaches a terminal state "
                    "(watch jobs/ for done/failed/cancelled)"
                ),
            )
        seq = next(self._seq)
        if job_id is None:
            job_id = f"job-{seq:04d}"
        if job_id in self._jobs:
            raise ServeError(f"duplicate job id {job_id!r}")
        job = Job(
            job_id=job_id,
            name=name if name is not None else spec.name,
            spec=spec,
            weight=weight,
            priority=priority,
            deadline=deadline,
            seq=seq,
        )
        if trace is None:
            trace = self.trace_dir is not None and spec.rule != "async"
        if trace:
            if self.trace_dir is None:
                raise ServeError(
                    "tracing requested but the coordinator has no "
                    "trace_dir"
                )
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            job.trace_path = str(self.trace_dir / f"{job_id}.jsonl")
        self._jobs[job_id] = job
        self._live[job_id] = job
        self._emit_state(job)
        return job

    def handle(self, job_id: str) -> JobHandle:
        """The handle for a previously submitted job id."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}")
        return JobHandle(self, job)

    def jobs(self) -> List[Dict[str, object]]:
        """State snapshots of every job, in submission order."""
        return [job.snapshot() for job in self._jobs.values()]

    # ------------------------------------------------------------------
    # Lifecycle internals
    # ------------------------------------------------------------------
    def _request_cancel(self, job: Job) -> bool:
        if job.state.terminal:
            return False
        job.cancel_requested = True
        if job.state is JobState.QUEUED:
            self._finish_cancel(job)
        # RUNNING jobs stop at the next round boundary (the scheduler
        # checks the flag before granting another quantum).
        return True

    def _finish_cancel(self, job: Job) -> None:
        if job.runner is not None:
            job.runner.abort()
        self._transition(job, JobState.CANCELLED)

    def _transition(
        self, job: Job, state: JobState, detail: str = ""
    ) -> None:
        job.state = state
        self._emit_state(job, detail)
        if state.terminal:
            self._live.pop(job.job_id, None)
            self.pool.discard(job)
            job.checkpoint_state = None
            job.plan = None
            if self._mailbox is not None:
                self._mailbox.clear_checkpoint(job.job_id)
            job.done_event.set()
            for queue in job.watchers:
                queue.put_nowait(None)
            job.watchers.clear()

    def _emit_state(self, job: Job, detail: str = "") -> None:
        self._push_event(job, JobEvent(
            job_id=job.job_id,
            kind="state",
            state=job.state.value,
            detail=detail or job.error,
        ))

    def _push_event(self, job: Job, event: JobEvent) -> None:
        for queue in job.watchers:
            queue.put_nowait(event)
        # The mailbox snapshot changes only on transitions; round
        # progress reaches file clients through the round log.
        if self._mailbox is not None and event.kind == "state":
            self._mailbox.write_state(job)

    def _start_job(self, job: Job) -> None:
        """QUEUED → RUNNING: build the engine (isolated on failure).

        Goes through the shared :class:`WorkerPool`, so a recovered job
        (one carrying a ``checkpoint_state``) resumes from its snapshot
        instead of round zero.
        """
        try:
            self.pool.acquire(job)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            job.error = _summarize_error(exc)
            self._transition(job, JobState.FAILED)
            return
        self.pool.release(job)
        self._transition(job, JobState.RUNNING)

    def _admit_queued(self) -> None:
        running = sum(
            1 for job in self._live.values()
            if job.state is JobState.RUNNING
        )
        if running >= self.max_running:
            return
        queued = [
            job for job in self._live.values()
            if job.state is JobState.QUEUED
        ]
        for job in queued:
            if running >= self.max_running:
                break
            if job.cancel_requested:
                self._finish_cancel(job)
                continue
            self._start_job(job)
            if job.state is JobState.RUNNING:
                running += 1

    def _runnable(self) -> List[Job]:
        """RUNNING jobs eligible for a quantum right now."""
        jobs = []
        for job in list(self._live.values()):
            if job.state is not JobState.RUNNING:
                continue
            if job.cancel_requested:
                self._finish_cancel(job)
                continue
            jobs.append(job)
        return jobs

    # ------------------------------------------------------------------
    # Quantum execution
    # ------------------------------------------------------------------
    def _run_quantum(self, job: Job) -> None:
        """Run one round of ``job`` and commit it (isolated on failure)."""
        try:
            runner = self.pool.acquire(job)
            done = runner.step()
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            job.error = _summarize_error(exc)
            if job.runner is not None:
                job.runner.abort()
            self._transition(job, JobState.FAILED)
            return
        job.rounds_done = runner.rounds_done
        record = runner.last_record
        self._push_event(job, JobEvent(
            job_id=job.job_id,
            kind="round",
            state=job.state.value,
            step=job.rounds_done,
            sim_time=record.sim_time if record is not None else None,
            loss=record.loss if record is not None else None,
        ))
        if done:
            job.report = runner.report()
            self._transition(job, JobState.DONE)
        elif job.cancel_requested:
            self._finish_cancel(job)
        else:
            # Still running: persist the round boundary so a killed
            # coordinator resumes from here, then hand the engine back
            # (the pool may park it under capacity pressure).
            if self._mailbox is not None:
                self._mailbox.write_checkpoint(job, runner.checkpoint())
            self.pool.release(job)

    # ------------------------------------------------------------------
    # Driving loops
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Run quanta until every submitted job is terminal.

        Each iteration polls the mailbox (while :meth:`serve` has one
        attached, so a cancel or a submission reaches a running job at
        its next round boundary), admits queued jobs, runs one quantum
        of the job the scheduler picks, and yields — also when nothing
        was runnable, so watchers and admission see every boundary.
        """
        while self._live:
            if self._mailbox is not None:
                self._poll_mailbox(self._mailbox)
            self._admit_queued()
            runnable = self._runnable()
            if runnable:
                self._run_quantum(self.scheduler.pick(runnable))
            await asyncio.sleep(0)

    async def serve(
        self,
        mailbox: "ServeMailbox",
        *,
        poll_interval: float = 0.05,
        idle_exit: Optional[float] = None,
        once: bool = False,
    ) -> None:
        """Serve a file mailbox: accept submissions, run jobs, publish
        state snapshots.

        ``once`` drains the current inbox and every admitted job, then
        returns (the CI smoke mode).  ``idle_exit`` returns after
        approximately that many seconds with an empty inbox and no
        active jobs (measured in ``poll_interval`` sleeps, not by
        reading a wall clock).  With neither, serves until cancelled.

        On startup the mailbox's ``checkpoints/`` records are scanned
        and every non-terminal job is re-admitted — RUNNING jobs resume
        from their last snapshotted round boundary, QUEUED ones from
        round zero — so a coordinator killed mid-run completes its
        jobs bit-identically after a restart (``announce`` has already
        taken over the stale pid marker).
        """
        self._mailbox = mailbox
        mailbox.announce(self)
        self._recover(mailbox)
        idle_polls = 0
        try:
            while True:
                admitted = self._poll_mailbox(mailbox)
                if self._live:
                    idle_polls = 0
                    await self.drain()
                    continue
                if once and not admitted:
                    return
                if idle_exit is not None:
                    idle_polls += 1
                    if idle_polls * poll_interval >= idle_exit:
                        return
                await asyncio.sleep(poll_interval)
        finally:
            mailbox.retire(self)
            self._mailbox = None

    def _recover(self, mailbox: "ServeMailbox") -> None:
        """Re-admit every checkpointed job the last coordinator left.

        A job whose published state is already terminal only needs its
        stale checkpoint cleared; everything else is re-admitted under
        its original id/class, carrying the snapshotted engine state
        (when one was written) so its first quantum continues exactly
        where the dead coordinator stopped.  Re-admission writes no
        fresh round-zero checkpoint over the one it resumes from.
        """
        for record in mailbox.poll_checkpoints():
            if record.job_id in self._jobs:
                continue
            published = mailbox.published_state(record.job_id)
            if published in ("done", "failed", "cancelled"):
                mailbox.clear_checkpoint(record.job_id)
                continue
            try:
                job = self._admit(
                    record.spec,
                    name=record.name,
                    weight=record.weight,
                    priority=record.priority,
                    deadline=record.deadline,
                    trace=False,
                    job_id=record.job_id,
                )
            except ServeError as exc:
                mailbox.clear_checkpoint(record.job_id)
                mailbox.write_rejection(
                    record.job_id,
                    f"recovery failed: {exc}",
                    {"reason": "recovery_failed"},
                )
                continue
            job.trace_path = record.trace_path
            job.checkpoint_state = state = record.engine_state
            job.rounds_done = state.round_index if state is not None else 0

    def _poll_mailbox(self, mailbox: "ServeMailbox") -> int:
        admitted = 0
        for submission in mailbox.poll_submissions():
            try:
                self.submit(
                    submission.spec,
                    name=submission.name,
                    weight=submission.weight,
                    trace=submission.trace,
                    job_id=submission.job_id,
                    priority=submission.priority,
                    deadline=submission.deadline,
                )
                admitted += 1
            except AdmissionError as exc:
                mailbox.write_rejection(
                    submission.job_id, str(exc), exc.details()
                )
            except ServeError as exc:
                mailbox.write_rejection(submission.job_id, str(exc))
        for job_id in mailbox.poll_cancels():
            job = self._jobs.get(job_id)
            if job is not None:
                self._request_cancel(job)
        return admitted

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further submissions and park unfinished engines.

        Parking goes through the worker pool: each engine's state is
        snapshotted onto its job record and its trace stream closed.
        """
        self._closed = True
        self.pool.clear()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _summarize_error(exc: BaseException) -> str:
    """One-line error summary plus the innermost frame, for job state."""
    lines = traceback.format_exception_only(type(exc), exc)
    summary = lines[-1].strip() if lines else repr(exc)
    tb = exc.__traceback__
    location = ""
    while tb is not None:
        frame = tb.tb_frame
        location = f" (at {frame.f_code.co_filename}:{tb.tb_lineno})"
        tb = tb.tb_next
    return summary + location


def run_jobs(
    specs: Sequence["ExperimentSpec | str | pathlib.Path"],
    *,
    max_running: int = 4,
    weights: Optional[Sequence[int]] = None,
    scheduler: Optional[Scheduler] = None,
    trace_dir: "str | pathlib.Path | None" = None,
    queue_limit: Optional[int] = None,
) -> List["RunReport"]:
    """Convenience driver: submit ``specs``, drain, return the reports.

    Results are in submission order.  A failed or cancelled job raises
    its :class:`~repro.serve.jobs.JobFailedError` /
    :class:`~repro.serve.jobs.JobCancelledError` — callers that want
    per-job outcomes should drive a :class:`Coordinator` directly.
    """
    coordinator = Coordinator(
        max_running=max_running,
        queue_limit=(
            queue_limit if queue_limit is not None else max(64, len(specs))
        ),
        scheduler=scheduler,
        trace_dir=trace_dir,
    )

    async def _run() -> List["RunReport"]:
        handles = [
            coordinator.submit(
                spec,
                weight=(weights[i] if weights is not None else 1),
            )
            for i, spec in enumerate(specs)
        ]
        await coordinator.drain()
        return [await handle.result() for handle in handles]

    with coordinator:
        return asyncio.run(_run())

"""Job lifecycle primitives: states, the coordinator-side record, and
the client-side :class:`JobHandle`.

A job is one :class:`~repro.engine.ExperimentSpec` owned by a
:class:`~repro.serve.Coordinator`.  Its lifecycle is a strict state
machine::

    submit ──▶ QUEUED ──▶ RUNNING ──▶ DONE
                  │           │ ├───▶ FAILED     (isolated; peers unaffected)
                  │           │ └───▶ CANCELLED  (at a round boundary)
                  └──────────▶ CANCELLED         (before ever running)

Terminal states carry either a :class:`~repro.engine.RunReport`
(``DONE``) or an error summary (``FAILED``).  All timing inside a job
is *simulated* seconds from its own engine; the coordinator never
injects wall-clock values into results (enforced by the ``DET002``
static check).
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, AsyncIterator, Dict, List, Optional

from ..exceptions import ServeError

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.report import RunReport
    from ..engine.spec import ExperimentSpec
    from .coordinator import Coordinator
    from .runner import JobRunner


class JobState(str, enum.Enum):
    """Where a job is in its lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class JobFailedError(ServeError):
    """Awaited a job that ended in :attr:`JobState.FAILED`."""


class JobCancelledError(ServeError):
    """Awaited a job that ended in :attr:`JobState.CANCELLED`."""


@dataclass
class JobEvent:
    """One progress event pushed to :meth:`JobHandle.watch` streams.

    ``kind`` is ``"state"`` for lifecycle transitions and ``"round"``
    for per-round progress; round events carry the step index and the
    job's own simulated clock/loss (never wall-clock values).
    """

    job_id: str
    kind: str
    state: str
    step: Optional[int] = None
    sim_time: Optional[float] = None
    loss: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (optional fields dropped when unset)."""
        payload: Dict[str, object] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
        }
        if self.step is not None:
            payload["step"] = self.step
        if self.sim_time is not None:
            payload["sim_time"] = self.sim_time
        if self.loss is not None:
            payload["loss"] = self.loss
        if self.detail:
            payload["detail"] = self.detail
        return payload


@dataclass(eq=False)  # identity semantics: jobs live in set membership
class Job:
    """Coordinator-side record of one submitted job (internal)."""

    job_id: str
    name: str
    spec: "ExperimentSpec"
    weight: int = 1
    #: scheduling-class priority tier; higher tiers preempt quanta.
    priority: int = 0
    #: optional deadline (simulated seconds); breaks credit ties
    #: earliest-deadline-first within a priority tier.
    deadline: Optional[float] = None
    state: JobState = JobState.QUEUED
    #: admission order; ties in the scheduler break on this.
    seq: int = 0
    rounds_done: int = 0
    report: "RunReport | None" = None
    error: str = ""
    trace_path: Optional[str] = None
    cancel_requested: bool = False
    #: the live engine wrapper once RUNNING (None while queued).
    runner: "JobRunner | None" = None
    #: parked engine state while evicted from the worker pool (or
    #: recovered from a mailbox checkpoint); consumed on re-acquire.
    checkpoint_state: "object | None" = None
    #: the job's :class:`~repro.engine.plan.EnginePlan`, from its first
    #: engine until it turns terminal; never serialised.
    plan: "object | None" = None
    #: scheduler bookkeeping (smooth weighted round-robin credit).
    credit: int = 0
    #: queues feeding active ``watch()`` streams.
    watchers: List["asyncio.Queue[JobEvent | None]"] = field(
        default_factory=list
    )
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    # The spec is frozen, so what every state file repeats about it is
    # computed once per job, not once per transition.

    @cached_property
    def spec_fingerprint(self) -> str:
        """``spec.fingerprint()`` (embedded in every state snapshot)."""
        return self.spec.fingerprint()

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state summary (the ``jobs/<id>.json`` payload)."""
        payload: Dict[str, object] = {
            "id": self.job_id,
            "name": self.name,
            "state": self.state.value,
            "weight": self.weight,
            "rounds_done": self.rounds_done,
            "spec_fingerprint": self.spec_fingerprint,
        }
        # Scheduling-class fields appear only when non-default, so
        # default-class jobs keep the exact historical payload.
        if self.priority != 0:
            payload["priority"] = self.priority
        if self.deadline is not None:
            payload["deadline"] = self.deadline
        if self.trace_path is not None:
            payload["trace_path"] = self.trace_path
        if self.report is not None:
            payload["report"] = self.report.to_dict()
        if self.error:
            payload["error"] = self.error
        return payload


class JobHandle:
    """The in-process client view of one submitted job.

    Obtained from :meth:`Coordinator.submit`; all waiting is asyncio
    (``await handle.result()``, ``async for event in handle.watch()``),
    while :attr:`state`, :attr:`report` and :meth:`cancel` are plain
    synchronous accessors.
    """

    def __init__(self, coordinator: "Coordinator", job: Job):
        self._coordinator = coordinator
        self._job = job

    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        return self._job.job_id

    @property
    def name(self) -> str:
        return self._job.name

    @property
    def state(self) -> JobState:
        return self._job.state

    @property
    def report(self) -> "RunReport | None":
        """The job's result payload once ``DONE``, else ``None``."""
        return self._job.report

    @property
    def error(self) -> str:
        """The failure summary once ``FAILED``, else ``""``."""
        return self._job.error

    @property
    def trace_path(self) -> Optional[str]:
        """Where this job's JSONL round trace streams, if tracing."""
        return self._job.trace_path

    def done(self) -> bool:
        """Whether the job has reached a terminal state."""
        return self._job.state.terminal

    # ------------------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation; returns ``False`` if already terminal.

        Queued jobs cancel immediately; running jobs stop at their next
        round boundary (the current round always completes, so traces
        never end mid-round).
        """
        return self._coordinator._request_cancel(self._job)

    async def result(self) -> "RunReport":
        """Wait for the job to finish and return its report.

        Raises :class:`JobFailedError` / :class:`JobCancelledError` for
        the corresponding terminal states.
        """
        await self._job.done_event.wait()
        if self._job.state is JobState.FAILED:
            raise JobFailedError(
                f"job {self._job.job_id} ({self._job.name}) failed: "
                f"{self._job.error}"
            )
        if self._job.state is JobState.CANCELLED:
            raise JobCancelledError(
                f"job {self._job.job_id} ({self._job.name}) was cancelled"
            )
        assert self._job.report is not None
        return self._job.report

    async def watch(self) -> AsyncIterator[JobEvent]:
        """Stream this job's lifecycle and per-round events.

        Yields every subsequent :class:`JobEvent` until the job reaches
        a terminal state; a watcher attached after completion receives
        just the terminal state event.
        """
        queue: "asyncio.Queue[JobEvent | None]" = asyncio.Queue()
        if self._job.state.terminal:
            yield JobEvent(
                job_id=self._job.job_id,
                kind="state",
                state=self._job.state.value,
                detail=self._job.error,
            )
            return
        self._job.watchers.append(queue)
        try:
            while True:
                event = await queue.get()
                if event is None:
                    return
                yield event
        finally:
            if queue in self._job.watchers:
                self._job.watchers.remove(queue)

"""File-based submission protocol between serve CLI commands and a
running coordinator.

A mailbox is a directory; every message is one JSON file written
atomically (temp file + ``os.replace``), so readers never observe a
partial payload and the protocol needs no socket, daemon library or
extra dependency.  Nothing is fsynced: the mailbox is crash-consistent
under process death (SIGKILL, OOM), not under power loss or an OS
crash.  Layout::

    <root>/
      coordinator.json          # present while a coordinator is serving
      inbox/<job_id>.json       # submissions, consumed in sorted order
      cancel/<job_id>.cancel
      jobs/<job_id>.json        # state snapshots, written on state
                                # transitions; live ``rounds_done``
                                # comes from the checkpoint head
      rejected/<job_id>.json
      checkpoints/<job_id>.json           # resumable job head: spec +
                                          # engine state minus history
      checkpoints/<job_id>.records.jsonl  # append-only record log, one
                                          # line per committed record
                                          # (both cleared on terminal
                                          # states)

Submissions embed the full spec payload (``{"spec": {...}}``), so the
coordinator revalidates through :meth:`ExperimentSpec.from_dict` and
rejections land in ``rejected/`` with the original error message —
including the spec layer's did-you-mean hints.  Admission rejections
(queue limit) additionally carry structured context: a machine-readable
``reason``, the queue depth/limit at rejection time, and a
``retry_hint``.

``checkpoints/`` is what makes jobs survive their coordinator: each
head holds everything needed to re-admit the job (spec, name, weight,
scheduling class, trace path) plus — once the job has run a quantum —
its serialized :class:`~repro.engine.EngineState`.  A round persists
what it changed, not the job's history: the new records are appended
to the job's record log and flushed, *then* the small head — the
engine state without its records and loss curve, plus
``records_logged``, the number of log lines it counts on — is replaced
atomically (the append-then-truncate discipline
:class:`~repro.obs.TraceStreamWriter` and ``truncate_traces`` use for
traces).  A crash between the two steps leaves lines the head does not
count; recovery keeps the first ``records_logged`` lines, drops later
or torn ones, and rejects a head whose log is shorter than it claims.
A restarting coordinator re-admits every non-terminal checkpointed job
and resumes it bit-identically (see :meth:`Coordinator.serve`).  The
``coordinator.json`` marker embeds the serving pid; a new coordinator
takes over a *stale* marker (dead pid) but refuses a live one.

Two classes share the directory: :class:`ServeMailbox` is the
coordinator side (poll, consume, publish state);
:class:`CoordinatorClient` is the CLI side (submit, list, cancel,
wait).  Wall-clock time appears *only* here, for client poll timeouts —
never in job results (the ``DET002`` static check keeps the rest of
:mod:`repro.serve` wall-clock-free).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from ..engine.spec import ExperimentSpec
from ..engine.state import EngineState
from ..exceptions import ReproError, ServeError, SubmissionRejectedError
from ..obs import truncate_traces

if TYPE_CHECKING:  # pragma: no cover
    from .coordinator import Coordinator
    from .jobs import Job

_INBOX = "inbox"
_JOBS = "jobs"
_CANCEL = "cancel"
_REJECTED = "rejected"
_CHECKPOINTS = "checkpoints"
_COORDINATOR = "coordinator.json"
#: record-log suffix; deliberately not ``*.json`` so head scans skip it.
_RECORD_LOG = ".records.jsonl"
_SUBDIRS = (_INBOX, _JOBS, _CANCEL, _REJECTED, _CHECKPOINTS)

#: terminal states a client's ``wait()`` stops on.
_TERMINAL = ("done", "failed", "cancelled", "rejected")


def _atomic_write(path: pathlib.Path, payload: Dict[str, object]) -> None:
    """Write compact sorted JSON so that readers see either nothing or
    the whole file: the one write primitive for every mailbox file that
    is replaced rather than appended to."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(_compact_json(payload) + "\n")
    os.replace(tmp, path)


def _compact_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _stems(directory: pathlib.Path, suffix: str) -> List[str]:
    """The names in ``directory`` ending in ``suffix``, in sorted
    file-name order, with the suffix cut off."""
    return [
        name[: -len(suffix)]
        for name in sorted(os.listdir(directory))
        if name.endswith(suffix)
    ]


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we can see."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative default
        return False
    return True


@dataclass
class Submission:
    """One decoded inbox entry."""

    job_id: str
    spec: ExperimentSpec
    name: Optional[str] = None
    weight: int = 1
    trace: Optional[bool] = None
    priority: int = 0
    deadline: Optional[float] = None

    @classmethod
    def from_payload(
        cls, job_id: str, payload: Dict[str, object]
    ) -> "Submission":
        if not isinstance(payload, dict) or "spec" not in payload:
            raise ServeError(
                f"submission {job_id!r} is missing the 'spec' payload"
            )
        spec = ExperimentSpec.from_dict(payload["spec"])
        weight = payload.get("weight", 1)
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise ServeError(
                f"submission {job_id!r} has non-integer weight "
                f"{weight!r}"
            )
        trace = payload.get("trace")
        if trace is not None and not isinstance(trace, bool):
            raise ServeError(
                f"submission {job_id!r} has non-boolean trace flag "
                f"{trace!r}"
            )
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise ServeError(
                f"submission {job_id!r} has non-string name {name!r}"
            )
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServeError(
                f"submission {job_id!r} has non-integer priority "
                f"{priority!r}"
            )
        deadline = payload.get("deadline")
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(
                deadline, (int, float)
            ):
                raise ServeError(
                    f"submission {job_id!r} has non-numeric deadline "
                    f"{deadline!r}"
                )
            deadline = float(deadline)
        return cls(
            job_id=job_id, spec=spec, name=name,
            weight=weight, trace=trace,
            priority=priority, deadline=deadline,
        )


@dataclass
class CheckpointRecord:
    """One decoded ``checkpoints/`` entry (a resumable job)."""

    job_id: str
    spec: ExperimentSpec
    name: str
    weight: int = 1
    priority: int = 0
    deadline: Optional[float] = None
    trace_path: Optional[str] = None
    rounds_done: int = 0
    engine_state: Optional[EngineState] = None

    @classmethod
    def from_payload(
        cls, job_id: str, payload: Dict[str, object]
    ) -> "CheckpointRecord":
        if not isinstance(payload, dict) or "spec" not in payload:
            raise ServeError(
                f"checkpoint {job_id!r} is missing the 'spec' payload"
            )
        engine_state = payload.get("engine_state")
        return cls(
            job_id=job_id,
            spec=ExperimentSpec.from_dict(payload["spec"]),
            name=str(payload.get("name", job_id)),
            weight=int(payload.get("weight", 1)),
            priority=int(payload.get("priority", 0)),
            deadline=(
                float(payload["deadline"])
                if payload.get("deadline") is not None else None
            ),
            trace_path=payload.get("trace_path"),
            rounds_done=int(payload.get("rounds_done", 0)),
            engine_state=(
                EngineState.from_dict(engine_state)
                if engine_state is not None else None
            ),
        )


class ServeMailbox:
    """Coordinator-side view of a mailbox directory."""

    def __init__(self, root: "str | pathlib.Path"):
        self.root = pathlib.Path(root)
        for sub in _SUBDIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        #: job id → lines its record log is known to hold (exactly that
        #: many, all a prefix of the job's history).  Absent = unknown:
        #: the next checkpoint with a state rewrites the log.
        self._logged: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def announce(self, coordinator: "Coordinator") -> None:
        """Publish that a coordinator is serving this mailbox.

        Refuses when another *live* process already holds the marker;
        a stale marker (dead pid — e.g. a killed coordinator) is taken
        over silently, which is what lets a restarted coordinator
        resume the mailbox's checkpointed jobs.
        """
        marker = self.root / _COORDINATOR
        if marker.exists():
            try:
                existing = json.loads(marker.read_text())
                pid = int(existing.get("pid", -1))
            except (ValueError, TypeError):
                pid = -1
            if pid > 0 and pid != os.getpid() and _pid_alive(pid):
                raise ServeError(
                    f"mailbox {self.root} is already served by live "
                    f"coordinator pid {pid}"
                )
        _atomic_write(marker, {
            "max_running": coordinator.max_running,
            "queue_limit": coordinator.queue_limit,
            "pid": os.getpid(),
        })

    def retire(self, coordinator: "Coordinator") -> None:
        """Remove the serving marker (idempotent)."""
        marker = self.root / _COORDINATOR
        if marker.exists():
            marker.unlink()

    # ------------------------------------------------------------------
    def poll_submissions(self) -> Iterator[Submission]:
        """Consume pending inbox entries in sorted (submission) order.

        Malformed payloads are moved straight to ``rejected/`` with the
        parse error; well-formed ones are yielded for admission.  The
        coordinator polls at every round boundary, so an empty inbox
        costs one directory listing.
        """
        inbox = self.root / _INBOX
        for job_id in _stems(inbox, ".json"):
            path = inbox / f"{job_id}.json"
            try:
                payload = json.loads(path.read_text())
                submission = Submission.from_payload(job_id, payload)
            except (ReproError, ValueError, TypeError) as exc:
                path.unlink()
                self.write_rejection(
                    job_id, str(exc), {"reason": "invalid_submission"}
                )
                continue
            path.unlink()
            yield submission

    def poll_cancels(self) -> List[str]:
        """Consume pending cancellation requests (job ids)."""
        directory = self.root / _CANCEL
        cancels = _stems(directory, ".cancel")
        for job_id in cancels:
            (directory / f"{job_id}.cancel").unlink()
        return cancels

    # ------------------------------------------------------------------
    def write_state(self, job: "Job") -> None:
        """Publish/refresh one job's state snapshot."""
        _atomic_write(
            self.root / _JOBS / f"{job.job_id}.json", job.snapshot()
        )

    def published_state(self, job_id: str) -> Optional[str]:
        """The ``state`` of ``job_id``'s published snapshot, or None
        when none was written (or it does not parse)."""
        path = self.root / _JOBS / f"{job_id}.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text()).get("state")
        except ValueError:
            return None

    def write_rejection(
        self,
        job_id: str,
        reason: str,
        details: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record that ``job_id`` was rejected — a malformed payload, a
        failed admission, an unrecoverable checkpoint.

        ``details`` carries the structured context (machine-readable
        ``reason``, and for an
        :class:`~repro.exceptions.AdmissionError` its
        ``queue_depth``/``queue_limit``/``retry_hint``).
        """
        payload: Dict[str, object] = {
            "id": job_id,
            "state": "rejected",
            "error": reason,
        }
        if details:
            payload.update(details)
        _atomic_write(self.root / _REJECTED / f"{job_id}.json", payload)

    # ------------------------------------------------------------------
    def write_checkpoint(
        self, job: "Job", state: "EngineState | None"
    ) -> None:
        """Persist one job's resumable record (spec + engine state).

        Written at admission (``state=None`` — the job can restart from
        round zero) and refreshed at every round boundary once the job
        runs, so a killed coordinator loses at most the quantum that
        was in flight.  A refresh costs the same at round 100 as at
        round 1: the records committed since the last write are
        appended to the job's log, then the head that counts them
        replaces the previous head.
        """
        payload: Dict[str, object] = {
            "id": job.job_id,
            "name": job.name,
            "weight": job.weight,
            "rounds_done": job.rounds_done,
            "spec": job.spec_payload,
            "engine_state": None,
        }
        if state is not None:
            payload["records_logged"] = self._log_records(job.job_id, state)
            payload["engine_state"] = state.without_history().to_dict()
        if job.priority != 0:
            payload["priority"] = job.priority
        if job.deadline is not None:
            payload["deadline"] = job.deadline
        if job.trace_path is not None:
            payload["trace_path"] = job.trace_path
        _atomic_write(self._head_path(job.job_id), payload)

    def _head_path(self, job_id: str) -> pathlib.Path:
        return self.root / _CHECKPOINTS / f"{job_id}.json"

    def _log_path(self, job_id: str) -> pathlib.Path:
        return self.root / _CHECKPOINTS / f"{job_id}{_RECORD_LOG}"

    def _log_records(self, job_id: str, state: EngineState) -> int:
        """Bring the job's record log up to ``state``; returns its length.

        Appends only what the log lacks.  A log of unknown content (a
        mailbox object that neither wrote nor recovered it) or one
        ahead of ``state`` is rewritten from the first record.
        """
        logged = self._logged.get(job_id)
        rewrite = logged is None or logged > state.round_index
        start = 0 if rewrite else logged
        pending = state.history(start)
        if pending or rewrite:
            with open(self._log_path(job_id), "w" if rewrite else "a") as log:
                log.writelines(_compact_json(r) + "\n" for r in pending)
        self._logged[job_id] = start + len(pending)
        return self._logged[job_id]

    def clear_checkpoint(self, job_id: str) -> None:
        """Drop a terminal job's head and record log (idempotent).

        Head first: a crash in between strands a log without a head,
        which :meth:`poll_checkpoints` sweeps, never a head whose log
        is gone.
        """
        self._logged.pop(job_id, None)
        self._head_path(job_id).unlink(missing_ok=True)
        self._log_path(job_id).unlink(missing_ok=True)

    def poll_checkpoints(self) -> List[CheckpointRecord]:
        """Decode every checkpoint record, in sorted (job id) order.

        Unreadable records — a head that does not parse, a log shorter
        than its head counts, a bad line inside the counted prefix —
        are rejected (with the parse error) rather than wedging
        recovery of the readable ones.
        """
        records = []
        directory = self.root / _CHECKPOINTS
        for path in sorted(directory.glob("*.json")):
            job_id = path.stem
            try:
                records.append(self._read_checkpoint(job_id, path))
            except (ReproError, ValueError, TypeError) as exc:
                self.clear_checkpoint(job_id)
                self.write_rejection(
                    job_id,
                    f"unreadable checkpoint: {exc}",
                    {"reason": "invalid_checkpoint"},
                )
        for log in directory.glob("*" + _RECORD_LOG):
            if not self._head_path(log.name[: -len(_RECORD_LOG)]).exists():
                log.unlink()
        return records

    def _read_checkpoint(
        self, job_id: str, path: pathlib.Path
    ) -> CheckpointRecord:
        """One head plus the log lines it counts, trimmed to that count."""
        payload = json.loads(path.read_text())
        record = CheckpointRecord.from_payload(job_id, payload)
        state = record.engine_state
        if state is None or "records_logged" not in payload:
            # Not yet run, or a pre-log head carrying its records
            # inline: no log line belongs to it.
            return record
        count = state.round_index
        if payload["records_logged"] != count:
            raise ServeError(
                f"checkpoint {job_id!r} counts "
                f"{payload['records_logged']!r} logged records but its "
                f"engine state is at round {count}"
            )
        log = self._log_path(job_id)
        # The primitive trace streams rewind with: drops the lines the
        # head does not count, raises when the log holds fewer.
        truncate_traces(log, count)
        lines = log.read_text().splitlines() if count else []
        record.engine_state = state.with_history(
            [json.loads(line) for line in lines]
        )
        self._logged[job_id] = count
        return record


class CoordinatorClient:
    """CLI/client-side view of a mailbox directory.

    Submissions are fire-and-forget file drops; state comes from the
    snapshots the coordinator publishes on state transitions, progress
    from the checkpoint head it replaces every round.  ``wait()`` polls
    with a wall-clock deadline — acceptable here because the clock only
    bounds the *wait*, it never enters a job result.
    """

    def __init__(self, root: "str | pathlib.Path"):
        self.root = pathlib.Path(root)
        for sub in _SUBDIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def serving(self) -> Optional[Dict[str, object]]:
        """The announce payload if a coordinator is serving, else None."""
        marker = self.root / _COORDINATOR
        if not marker.exists():
            return None
        return json.loads(marker.read_text())

    def _fresh_job_id(self) -> str:
        taken = {
            path.stem
            for sub in (_INBOX, _JOBS, _REJECTED, _CHECKPOINTS)
            for path in (self.root / sub).glob("*.json")
        }
        i = 0
        while f"job-{os.getpid()}-{i:04d}" in taken:
            i += 1
        return f"job-{os.getpid()}-{i:04d}"

    def submit(
        self,
        spec: "ExperimentSpec | str | pathlib.Path",
        *,
        name: Optional[str] = None,
        weight: int = 1,
        trace: Optional[bool] = None,
        job_id: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> str:
        """Drop one submission into the inbox; returns its job id.

        Reusing the id of an already *rejected* submission raises
        :class:`~repro.exceptions.SubmissionRejectedError` carrying the
        structured rejection record (reason, queue depth, retry hint).
        """
        if not isinstance(spec, ExperimentSpec):
            spec = ExperimentSpec.from_file(spec)
        if job_id is None:
            job_id = self._fresh_job_id()
        rejected = self.root / _REJECTED / f"{job_id}.json"
        if rejected.exists():
            record = json.loads(rejected.read_text())
            raise SubmissionRejectedError(
                f"job id {job_id!r} was rejected: "
                f"{record.get('error', 'unknown reason')}",
                record=record,
            )
        target = self.root / _INBOX / f"{job_id}.json"
        if target.exists() or (self.root / _JOBS / f"{job_id}.json").exists():
            raise ServeError(f"duplicate job id {job_id!r}")
        payload: Dict[str, object] = {
            "spec": spec.to_dict(),
            "weight": int(weight),
        }
        if name is not None:
            payload["name"] = name
        if trace is not None:
            payload["trace"] = trace
        # Scheduling-class fields ride along only when non-default, so
        # default-class payloads stay byte-identical to the old format.
        if priority != 0:
            payload["priority"] = int(priority)
        if deadline is not None:
            payload["deadline"] = float(deadline)
        _atomic_write(target, payload)
        return job_id

    def cancel(self, job_id: str) -> None:
        """Request cancellation of a submitted job."""
        (self.root / _CANCEL / f"{job_id}.cancel").write_text("")

    # ------------------------------------------------------------------
    def _with_progress(
        self, job_id: str, snapshot: Dict[str, object]
    ) -> Dict[str, object]:
        """``snapshot`` with a live job's ``rounds_done`` taken from its
        checkpoint head.

        A terminal snapshot (or rejection record) is final.  A head
        that is missing (cleared in a race with a terminal transition)
        or unreadable leaves the snapshot's own value.
        """
        if snapshot.get("state") in _TERMINAL:
            return snapshot
        head = self.root / _CHECKPOINTS / f"{job_id}.json"
        try:
            rounds = json.loads(head.read_text())["rounds_done"]
        except (OSError, ValueError, KeyError, TypeError):
            return snapshot
        if isinstance(rounds, int):
            snapshot["rounds_done"] = rounds
        return snapshot

    def state(self, job_id: str) -> Optional[Dict[str, object]]:
        """The latest snapshot for one job (or its rejection record),
        with live ``rounds_done`` while it is not terminal."""
        for sub in (_JOBS, _REJECTED):
            path = self.root / sub / f"{job_id}.json"
            if path.exists():
                return self._with_progress(
                    job_id, json.loads(path.read_text())
                )
        inbox = self.root / _INBOX / f"{job_id}.json"
        if inbox.exists():
            return {"id": job_id, "state": "submitted"}
        return None

    def jobs(self) -> List[Dict[str, object]]:
        """All known job snapshots, sorted by job id (live
        ``rounds_done`` as in :meth:`state`)."""
        snapshots = {}
        for sub in (_JOBS, _REJECTED):
            for path in sorted((self.root / sub).glob("*.json")):
                snapshots[path.stem] = self._with_progress(
                    path.stem, json.loads(path.read_text())
                )
        for path in sorted((self.root / _INBOX).glob("*.json")):
            snapshots.setdefault(
                path.stem, {"id": path.stem, "state": "submitted"}
            )
        return [snapshots[key] for key in sorted(snapshots)]

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 60.0,
        poll_interval: float = 0.05,
    ) -> Dict[str, object]:
        """Block until ``job_id`` reaches a terminal state.

        Returns the final snapshot; raises
        :class:`~repro.exceptions.SubmissionRejectedError` (carrying
        the structured record) when the submission was rejected, and
        :class:`ServeError` when the timeout expires first.  The
        deadline uses the monotonic clock purely for flow control —
        nothing from it enters the result.
        """
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.state(job_id)
            if snapshot is not None and snapshot.get("state") in _TERMINAL:
                if snapshot.get("state") == "rejected":
                    raise SubmissionRejectedError(
                        f"job {job_id!r} was rejected: "
                        f"{snapshot.get('error', 'unknown reason')}",
                        record=snapshot,
                    )
                return snapshot
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"timed out after {timeout:g}s waiting for job "
                    f"{job_id!r}"
                    + ("" if snapshot else " (never seen by a coordinator)")
                )
            time.sleep(poll_interval)

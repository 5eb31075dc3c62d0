"""File-based submission protocol between serve CLI commands and a
running coordinator.

A mailbox is a directory; every message is one JSON file written
atomically (temp file + ``os.replace``) or one JSON line appended to a
log read from its last complete line, so readers never observe a
partial payload and the protocol needs no socket, daemon library or
extra dependency.  Nothing is fsynced: the mailbox is crash-consistent
under process death (SIGKILL, OOM), not under power loss or an OS
crash.  Layout::

    <root>/
      coordinator.json          # present while a coordinator is serving
      inbox/<job_id>.json       # submissions, consumed in sorted order
      cancel/<job_id>.cancel
      jobs/<job_id>.jsonl       # state log, one snapshot line per
                                # transition; live ``rounds_done``
                                # comes from the round log
      rejected/<job_id>.json
      checkpoints/<job_id>.json          # job head: spec + scheduling
                                         # class, written at admission
      checkpoints/<job_id>.rounds.jsonl  # round log, one line per round
                                         # boundary (both cleared on
                                         # terminal states)

Submissions embed the full spec payload (``{"spec": {...}}``), so the
coordinator revalidates through :meth:`ExperimentSpec.from_dict` and
rejections land in ``rejected/`` with the original error message —
including the spec layer's did-you-mean hints.  Admission rejections
(queue limit) additionally carry structured context: a machine-readable
``reason``, the queue depth/limit at rejection time, and a
``retry_hint``.

``checkpoints/`` is what makes jobs survive their coordinator.  A
job's head holds what never changes (spec, name, weight, scheduling
class, trace path); it is written once, at admission, after the empty
round log it names.  A running round then costs one append and no
replace: a compact line ``{"engine_state", "records", "rounds_done"}``
carrying the engine state without its history and the records
committed since the previous line.  Every line is a complete resume
point, so recovery takes the records of every newline-terminated line
and the state of the last one, and cuts a torn last line off the file;
a log whose records disagree with that state's ``round_index``, or
whose complete line does not parse, is rejected.  A restarting
coordinator re-admits every non-terminal checkpointed job and resumes
it bit-identically (see :meth:`Coordinator.serve`).  This is the one
layout read: a head that carries ``engine_state`` (an earlier layout)
is rejected like any other unreadable checkpoint, and so is a round
line whose engine state is of another version; nothing reads a
``jobs/<id>.json`` snapshot.  The ``coordinator.json``
marker embeds the serving pid; a new coordinator takes over a *stale*
marker (dead pid) but refuses a live one.

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
from .scheduler import check_deadline

if TYPE_CHECKING:  # pragma: no cover
    from .coordinator import Coordinator
    from .jobs import Job

_INBOX = "inbox"
_JOBS = "jobs"
_CANCEL = "cancel"
_REJECTED = "rejected"
_CHECKPOINTS = "checkpoints"
_COORDINATOR = "coordinator.json"
#: round-log suffix; deliberately not ``*.json`` so head scans skip it.
_ROUND_LOG = ".rounds.jsonl"
#: state-log suffix (``jobs/<job_id>.jsonl``).
_STATE_LOG = ".jsonl"
_SUBDIRS = (_INBOX, _JOBS, _CANCEL, _REJECTED, _CHECKPOINTS)

#: terminal states a client's ``wait()`` stops on.
_TERMINAL = ("done", "failed", "cancelled", "rejected")


def _atomic_write(path: pathlib.Path, payload: Dict[str, object]) -> None:
    """Write compact sorted JSON so that readers see either nothing or
    the whole file: the one write primitive for a file written whole.
    What a drain changes is appended to instead: on ext4, renaming over
    an existing file costs tens of milliseconds of block freeing."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(_compact_json(payload) + "\n")
    os.replace(tmp, path)


def _append(path: pathlib.Path, line: str) -> None:
    """Append one newline-terminated line: the one write of a running
    round and of a state transition.  Closing the file hands the bytes
    to the kernel, so they survive the death of this process."""
    with open(path, "a") as log:
        log.write(line)


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


def _last_line(path: pathlib.Path) -> bytes:
    """The last newline-terminated line of ``path`` (empty when it has
    none), read backwards from the end in doubling blocks: a torn tail
    is skipped, and one line may be as long as the whole file."""
    with open(path, "rb") as handle:
        start = handle.seek(0, os.SEEK_END)
        tail = b""
        block = 4096
        while start > 0:
            step = min(block, start)
            start -= step
            handle.seek(start)
            tail = handle.read(step) + tail
            end = tail.rfind(b"\n")
            if end >= 0 and tail.rfind(b"\n", 0, end) >= 0:
                break
            block *= 2
    end = tail.rfind(b"\n")
    return tail[tail.rfind(b"\n", 0, end) + 1:end] if end >= 0 else b""


def _cut_torn_tail(path: pathlib.Path) -> bytes:
    """The newline-terminated lines of log ``path``, with a torn last
    line (the append a killed process had in flight) cut off the file
    itself, so the next append starts a clean line."""
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        os.truncate(path, end)
    return data[:end]


def _state_log(root: pathlib.Path, job_id: str) -> pathlib.Path:
    return root / _JOBS / f"{job_id}{_STATE_LOG}"


def _last_record(path: pathlib.Path) -> Optional[Dict[str, object]]:
    """The JSON mapping on the last complete line of log ``path``, or
    None when the log is missing, has no complete line yet or that line
    is not a JSON mapping."""
    try:
        record = json.loads(_last_line(path))
    except (OSError, ValueError):
        return None
    return record if isinstance(record, dict) else None


#: the fields a submission, a checkpoint head and a direct submit
#: share: their default and the types a value may have (``bool`` is
#: never an ``int``).
_JOB_FIELDS = {
    "name": (None, (str,), "non-string name"),
    "weight": (1, (int,), "non-integer weight"),
    "priority": (0, (int,), "non-integer priority"),
    "deadline": (None, (int, float), "non-numeric deadline"),
    "trace": (None, (bool,), "non-boolean trace flag"),
    "trace_path": (None, (str,), "non-string trace path"),
}


def job_fields(
    owner: str, payload: Dict[str, object], *names: str
) -> Dict[str, object]:
    """``names`` read from ``payload`` through one type check, so an
    inbox entry, a checkpoint head, ``Coordinator.submit`` and
    ``CoordinatorClient.submit`` accept exactly the same values (raises
    :class:`ServeError` naming ``owner``; never coerces)."""
    fields = {}
    for key in names:
        default, types, problem = _JOB_FIELDS[key]
        value = payload.get(key, default)
        if (value is not None or default is not None) and (
            not isinstance(value, types)
            or (isinstance(value, bool) and bool not in types)
        ):
            raise ServeError(f"{owner} has {problem} {value!r}")
        fields[key] = value
    if fields.get("deadline") is not None:
        fields["deadline"] = float(fields["deadline"])
        check_deadline(fields["deadline"], owner)
    return fields


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
        return cls(
            job_id=job_id,
            spec=ExperimentSpec.from_dict(payload["spec"]),
            **job_fields(
                f"submission {job_id!r}", payload,
                "name", "weight", "trace", "priority", "deadline",
            ),
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
    engine_state: Optional[EngineState] = None

    @classmethod
    def from_payload(
        cls, job_id: str, payload: Dict[str, object]
    ) -> "CheckpointRecord":
        """The head's fixed part; the mailbox adds the resume point."""
        if not isinstance(payload, dict) or "spec" not in payload:
            raise ServeError(
                f"checkpoint {job_id!r} is missing the 'spec' payload"
            )
        fields = job_fields(
            f"checkpoint {job_id!r}", payload,
            "name", "weight", "priority", "deadline", "trace_path",
        )
        if fields["name"] is None:
            fields["name"] = job_id
        return cls(
            job_id=job_id,
            spec=ExperimentSpec.from_dict(payload["spec"]),
            **fields,
        )


class ServeMailbox:
    """Coordinator-side view of a mailbox directory."""

    def __init__(self, root: "str | pathlib.Path"):
        self.root = pathlib.Path(root)
        for sub in _SUBDIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        #: job id → records its round log is known to hold (all of the
        #: job's history up to there).  Absent = unknown: the next
        #: checkpoint rewrites the log and the head.
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
        """Publish one job's state: append its snapshot to its state
        log, one line per transition."""
        _append(
            _state_log(self.root, job.job_id),
            _compact_json(job.snapshot()) + "\n",
        )

    def published_state(self, job_id: str) -> Optional[str]:
        """The ``state`` of ``job_id``'s last published snapshot, or
        None when none was written (or it does not parse).  Recovery
        asks before re-admitting a job, so a torn last line is cut off
        here; a log left with no complete line is removed, not kept
        empty."""
        path = _state_log(self.root, job_id)
        if not path.exists():
            return None
        if not _cut_torn_tail(path):
            path.unlink()
        snapshot = _last_record(path)
        return None if snapshot is None else snapshot.get("state")

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
        """Persist one job's resume point.

        At admission (``state=None``) the job's empty round log is
        created, then its head (spec and scheduling class, which never
        change) is written.  At every round boundary after that, the
        round costs one append and no replace: a line holding
        ``rounds_done``, the records committed since the previous line
        and the engine state without its history, so a killed
        coordinator loses at most the round in flight and round 100
        costs what round 1 does.  A job whose log this mailbox does not
        know (submitted before the mailbox was attached, so first
        checkpointed after its admission) gets a one-line log carrying
        its whole history, then its head.
        """
        logged = self._logged.get(job.job_id)
        if state is None or logged is None or logged > state.round_index:
            self._rewrite(job, state)
            return
        _append(
            self._log_path(job.job_id),
            _compact_json(self._round_line(job, state, logged)) + "\n",
        )
        self._logged[job.job_id] = state.round_index

    def _rewrite(self, job: "Job", state: "EngineState | None") -> None:
        """Log first, then head: a head never names a log that is not
        whole.  The log is replaced atomically when it carries history,
        so a head on disk always keeps a complete resume point."""
        log = self._log_path(job.job_id)
        if state is None:
            log.write_bytes(b"")
            self._logged[job.job_id] = 0
        else:
            _atomic_write(log, self._round_line(job, state, 0))
            self._logged[job.job_id] = state.round_index
        payload: Dict[str, object] = {
            "id": job.job_id,
            "name": job.name,
            "weight": job.weight,
            "spec": job.spec.to_dict(),
        }
        if job.priority != 0:
            payload["priority"] = job.priority
        if job.deadline is not None:
            payload["deadline"] = job.deadline
        if job.trace_path is not None:
            payload["trace_path"] = job.trace_path
        _atomic_write(self._head_path(job.job_id), payload)

    @staticmethod
    def _round_line(
        job: "Job", state: EngineState, start: int
    ) -> Dict[str, object]:
        """One round-log line: the records from ``start`` on and the
        state they lead to, minus that history."""
        return {
            "engine_state": state.without_history().to_dict(),
            "records": state.history(start),
            "rounds_done": job.rounds_done,
        }

    def _head_path(self, job_id: str) -> pathlib.Path:
        return self.root / _CHECKPOINTS / f"{job_id}.json"

    def _log_path(self, job_id: str) -> pathlib.Path:
        return self.root / _CHECKPOINTS / f"{job_id}{_ROUND_LOG}"

    def clear_checkpoint(self, job_id: str) -> None:
        """Drop a terminal job's head and round log (idempotent).

        Head first: a crash in between strands a log without a head,
        which :meth:`poll_checkpoints` sweeps, never a head whose log
        is gone.
        """
        self._logged.pop(job_id, None)
        self._head_path(job_id).unlink(missing_ok=True)
        self._log_path(job_id).unlink(missing_ok=True)

    def poll_checkpoints(self) -> List[CheckpointRecord]:
        """Decode every checkpoint record, in sorted (job id) order.

        Unreadable records — a head that does not parse, a head in an
        earlier layout, a head whose log is missing, a complete log line
        that does not parse, an engine state of another version, records
        that disagree with the state they lead to — are rejected (with
        the parse error) rather than wedging recovery of the readable
        ones.  What no head will read is swept: a log whose head is
        gone, a temp file a crash left before its ``os.replace``.
        """
        records = []
        directory = self.root / _CHECKPOINTS
        for path in sorted(directory.glob("*.json")):
            job_id = path.stem
            try:
                record = self._read_checkpoint(job_id, path)
            except (ReproError, ValueError, TypeError) as exc:
                self.clear_checkpoint(job_id)
                self.write_rejection(
                    job_id,
                    f"unreadable checkpoint: {exc}",
                    {"reason": "invalid_checkpoint"},
                )
                continue
            records.append(record)
        for path in directory.glob("*" + _ROUND_LOG):
            if not self._head_path(path.name[: -len(_ROUND_LOG)]).exists():
                path.unlink()
        for path in directory.glob("*.tmp"):
            path.unlink()
        return records

    def _read_checkpoint(
        self, job_id: str, path: pathlib.Path
    ) -> CheckpointRecord:
        """One head plus its round log."""
        payload = json.loads(path.read_text())
        record = CheckpointRecord.from_payload(job_id, payload)
        if "engine_state" in payload:
            raise ServeError(
                f"checkpoint {job_id!r} carries 'engine_state' in its "
                f"head, an earlier layout this version does not read"
            )
        log = self._log_path(job_id)
        if not log.exists():
            raise ServeError(f"checkpoint {job_id!r} has no round log")
        history: List[Dict[str, object]] = []
        line = None
        for text in _cut_torn_tail(log).splitlines():
            line = json.loads(text)
            if not isinstance(line, dict) or not isinstance(
                line.get("records"), list
            ):
                raise ServeError(
                    f"checkpoint {job_id!r} has a round line that is not "
                    f"a mapping with a 'records' list"
                )
            history.extend(line["records"])
        if line is not None:
            state = EngineState.from_dict(line.get("engine_state"))
            if not len(history) == state.round_index == line.get(
                "rounds_done"
            ):
                raise ServeError(
                    f"checkpoint {job_id!r} logs {len(history)} records "
                    f"and {line.get('rounds_done')!r} rounds but its "
                    f"engine state is at round {state.round_index}"
                )
            record.engine_state = state.with_history(history)
        self._logged[job_id] = len(history)
        return record


class CoordinatorClient:
    """CLI/client-side view of a mailbox directory.

    Submissions are fire-and-forget file drops; state comes from the
    log the coordinator appends to on state transitions, progress from
    the round log it appends to every round.  ``wait()`` polls with a
    wall-clock deadline — acceptable here because the clock only
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
            for path in (self.root / sub).glob("*.json*")
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
        # The coordinator's own check, before anything is written: a
        # value it would refuse never reaches the inbox.
        fields = job_fields(
            f"submission {job_id!r}",
            dict(name=name, weight=weight, trace=trace, priority=priority,
                 deadline=deadline),
            "name", "weight", "trace", "priority", "deadline",
        )
        rejected = self.root / _REJECTED / f"{job_id}.json"
        if rejected.exists():
            record = json.loads(rejected.read_text())
            raise SubmissionRejectedError(
                f"job id {job_id!r} was rejected: "
                f"{record.get('error', 'unknown reason')}",
                record=record,
            )
        target = self.root / _INBOX / f"{job_id}.json"
        if target.exists() or _state_log(self.root, job_id).exists():
            raise ServeError(f"duplicate job id {job_id!r}")
        payload: Dict[str, object] = {
            "spec": spec.to_dict(),
            "weight": fields["weight"],
        }
        if name is not None:
            payload["name"] = name
        if trace is not None:
            payload["trace"] = trace
        # Scheduling-class fields ride along only when non-default, so
        # default-class payloads stay byte-identical to the old format.
        if priority != 0:
            payload["priority"] = priority
        if deadline is not None:
            payload["deadline"] = fields["deadline"]
        _atomic_write(target, payload)
        return job_id

    def cancel(self, job_id: str) -> None:
        """Request cancellation of a submitted job."""
        (self.root / _CANCEL / f"{job_id}.cancel").write_text("")

    # ------------------------------------------------------------------
    def _with_progress(
        self, job_id: str, snapshot: Dict[str, object]
    ) -> Dict[str, object]:
        """``snapshot`` with a live job's ``rounds_done`` taken from the
        last complete line of its round log.

        A terminal snapshot (or rejection record) is final.  A log that
        is missing (cleared in a race with a terminal transition), has
        no complete line yet or does not parse leaves the snapshot's
        own value.
        """
        if snapshot.get("state") in _TERMINAL:
            return snapshot
        log = self.root / _CHECKPOINTS / f"{job_id}{_ROUND_LOG}"
        line = _last_record(log)
        rounds = line.get("rounds_done") if line is not None else None
        if isinstance(rounds, int):
            snapshot["rounds_done"] = rounds
        return snapshot

    def state(self, job_id: str) -> Optional[Dict[str, object]]:
        """The latest snapshot for one job (or its rejection record),
        with live ``rounds_done`` while it is not terminal.  A rejection
        is final, also of a job recovery could not read after its state
        log said ``running``."""
        rejected = self.root / _REJECTED / f"{job_id}.json"
        if rejected.exists():
            snapshot = json.loads(rejected.read_text())
        else:
            snapshot = _last_record(_state_log(self.root, job_id))
        if snapshot is not None:
            return self._with_progress(job_id, snapshot)
        if (self.root / _INBOX / f"{job_id}.json").exists():
            return {"id": job_id, "state": "submitted"}
        return None

    def jobs(self) -> List[Dict[str, object]]:
        """All known job snapshots, sorted by job id (each as
        :meth:`state` reads it)."""
        ids = {
            *_stems(self.root / _JOBS, _STATE_LOG),
            *_stems(self.root / _REJECTED, ".json"),
            *_stems(self.root / _INBOX, ".json"),
        }
        return [
            snapshot for snapshot in map(self.state, sorted(ids))
            if snapshot is not None
        ]

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

"""Resumable serving: worker-pool eviction, crash recovery, scheduling
classes and the sweep submission front end.

The properties under test extend ``tests/test_serve.py``'s
interleaved-equals-sequential invariant across *process* boundaries:

* a :class:`~repro.serve.WorkerPool` may park any non-running job as a
  checkpoint and rebuild it later — results stay bit-identical at any
  capacity, including the degenerate capacity-0 pool that rebuilds
  every quantum;
* a SIGKILLed coordinator leaves behind per-quantum checkpoint records
  and a stale serving marker; a restarted coordinator takes the marker
  over, re-admits every non-terminal job and completes them — reports
  *and* streamed traces bit-identical to runs that were never
  interrupted;
* a job's head is written once, at admission, and a round's
  checkpoint is one appended round-log line (no file is replaced
  while a job runs); a crash before, during or after that append, a
  torn log line, an earlier-layout checkpoint or a hostile record
  ends in a bit-identical resume or a ``rejected/`` entry, never a
  dead coordinator;
* ``jobs/<id>.jsonl`` gains one appended line per state transition,
  however long the job or the coordinator lives, and a drain replaces
  no existing file; file clients read a job's state from the last
  complete line of that log and a live job's ``rounds_done`` from the
  last complete line of its round log;
* :class:`~repro.serve.SchedulingClass` priorities drain strictly
  higher tiers first while SWRR fairness (±1 quantum) holds within
  each tier, with earliest-deadline-first tie-breaking;
* ``repro submit --sweep`` fans the exact ``repro run --sweep`` grid
  into mailbox jobs, bit-identical to the serial sweep.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import dataclasses
import itertools
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CoordinatorClient, ExperimentSpec, run_jobs
from repro.cli import main as cli_main
from repro.engine.report import build_run_report
from repro.engine.spec import run_spec, run_spec_variation
from repro.engine.state import STATE_VERSION
from repro.exceptions import (
    AdmissionError,
    ConfigurationError,
    ServeError,
    SubmissionRejectedError,
    TrainingError,
)
from repro.experiments.sweep import Sweep
from repro.obs import read_traces
from repro.serve import (
    Coordinator,
    FairScheduler,
    SchedulingClass,
    ServeMailbox,
    WorkerPool,
)
from repro.serve import mailbox as mailbox_module
from repro.serve.jobs import Job, JobState
from repro.serve.runner import JobRunner

from conftest import BAD_ENVIRONMENT_VALUES
from time_origins import time_origin_problems

REPO = pathlib.Path(__file__).resolve().parent.parent


def make_spec(i, max_steps=6, **over):
    base = dict(
        name=f"resume-test-{i}",
        scheme="is-gc-cr",
        num_workers=4,
        partitions_per_worker=2,
        wait_for=2,
        max_steps=max_steps,
        seed=50 + i,
    )
    base.update(over)
    return ExperimentSpec(**base)


def tiny_spec(**over):
    """A spec small enough to fan out by the hundred."""
    base = dict(
        name="sweep-cell",
        scheme="sync-sgd",
        num_workers=2,
        partitions_per_worker=1,
        wait_for=2,
        max_steps=2,
        seed=0,
        dataset={
            "kind": "classification",
            "samples": 64,
            "features": 4,
            "num_classes": 2,
            "separation": 3.0,
            "batch_size": 16,
        },
    )
    base.update(over)
    return ExperimentSpec(**base)


def strip_trace(payload):
    payload = dict(payload)
    payload.pop("trace_path", None)
    return payload


def drain(mailbox_root, **kwargs):
    """Serve the mailbox once, in-process, deterministically."""
    coord = Coordinator(**kwargs)
    mailbox = ServeMailbox(mailbox_root)
    with coord:
        asyncio.run(coord.serve(mailbox, once=True))
    return coord


def run_coordinator(specs, *, pool_capacity, trace_dir=None, mailbox=None):
    """Drain ``specs`` through one coordinator with a bounded pool."""
    coord = Coordinator(
        max_running=4,
        queue_limit=max(64, len(specs)),
        trace_dir=trace_dir,
        pool_capacity=pool_capacity,
    )

    async def _run():
        handles = [coord.submit(spec) for spec in specs]
        if mailbox is not None:
            await coord.serve(mailbox, once=True)
        else:
            await coord.drain()
        return [await h.result() for h in handles]

    with coord:
        return asyncio.run(_run()), coord


def count_plan_derivations(monkeypatch):
    """Count what only deriving an ``EnginePlan`` does: generating the
    dataset and drawing the classic-GC coding matrix."""
    from repro.codes import gc_scheme
    from repro.training import datasets

    counts = {"datasets": 0, "matrices": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        datasets, "make_classification",
        counted("datasets", datasets.make_classification),
    )
    monkeypatch.setattr(
        gc_scheme, "cyclic_b_matrix",
        counted("matrices", gc_scheme.cyclic_b_matrix),
    )
    return counts


# ----------------------------------------------------------------------
# Worker-pool eviction determinism


class TestWorkerPoolDeterminism:
    def test_a_parked_job_keeps_its_plan(self, monkeypatch):
        # The regression guard is a count, not a timer: at capacity 0
        # every quantum instantiates a new engine, but what the spec
        # alone determines is derived once per job.
        specs = [make_spec(i) for i in range(3)] + [make_spec(3, scheme="gc")]
        baseline = run_jobs(specs)
        counts = count_plan_derivations(monkeypatch)
        reports, coord = run_coordinator(specs, pool_capacity=0)
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in baseline
        ]
        stats = coord.pool.stats
        assert stats.restores > 0
        assert stats.builds == stats.restores + len(specs)
        assert counts == {"datasets": len(specs), "matrices": 1}
        for job in coord._jobs.values():
            assert job.state.terminal
            assert job.plan is None and job.checkpoint_state is None

    def test_terminal_jobs_drop_plan_and_state(self):
        # DONE, CANCELLED and FAILED alike.  The failure is a parked
        # state swapped for another spec's: it must fail its own job,
        # typed and naming the field, not run on the wrong plan.
        rounds = 8
        foreign = JobRunner(make_spec(9, rule="local-update"))
        foreign.step()
        foreign_state = foreign.checkpoint()

        async def scenario():
            coord = Coordinator(max_running=3, pool_capacity=0)
            cancelled = coord.submit(make_spec(0, max_steps=rounds))
            failed = coord.submit(make_spec(1, max_steps=rounds))
            done = coord.submit(make_spec(2, max_steps=rounds))

            async def meddle():
                async for event in failed.watch():
                    if event.kind == "round" and event.step == 2:
                        job = coord._jobs[failed.job_id]
                        # parked: plan + state, no engine
                        assert job.runner is None
                        assert job.plan is not None
                        assert job.checkpoint_state is not None
                        job.checkpoint_state = foreign_state
                        cancelled.cancel()

            task = asyncio.create_task(meddle())
            with coord:
                await coord.drain()
            await task
            return coord, cancelled, failed, done

        coord, cancelled, failed, done = asyncio.run(scenario())
        assert cancelled.state is JobState.CANCELLED
        assert failed.state is JobState.FAILED
        assert "TrainingError" in failed.error
        assert "section 'rule'" in failed.error
        assert done.state is JobState.DONE
        (solo,) = run_jobs([make_spec(2, max_steps=rounds)])
        assert done.report.to_dict() == solo.to_dict()
        for job in coord._jobs.values():
            assert job.plan is None
            assert job.checkpoint_state is None
            assert job.runner is None

    def test_capacity_zero_rebuilds_every_quantum(self):
        specs = [make_spec(i) for i in range(4)]
        baseline = run_jobs(specs)
        reports, coord = run_coordinator(specs, pool_capacity=0)
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in baseline
        ]
        stats = coord.pool.stats
        assert stats.evictions > 0
        assert stats.restores > 0

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_bounded_pool_bit_identical_with_traces(self, capacity, tmp_path):
        specs = [make_spec(i) for i in range(4)]
        solo = []
        for i, spec in enumerate(specs):
            solo.extend(
                run_jobs([spec], trace_dir=tmp_path / f"solo-{i}")
            )
        reports, coord = run_coordinator(
            specs, pool_capacity=capacity,
            trace_dir=tmp_path / "pooled",
        )
        assert [strip_trace(r.to_dict()) for r in reports] == [
            strip_trace(r.to_dict()) for r in solo
        ]
        for pooled, straight in zip(reports, solo):
            assert (
                pathlib.Path(pooled.trace_path).read_bytes()
                == pathlib.Path(straight.trace_path).read_bytes()
            )
            # Parked and restored between rounds, each job's clock still
            # chains; its report's time curve is the sim-time clause (a
            # report carries no per-round wait time).
            traces = read_traces(pooled.trace_path)
            assert time_origin_problems(traces) == []
            assert pooled.time_curve == tuple(t.step_end for t in traces)
        assert coord.pool.stats.evictions > 0
        assert coord.pool.stats.restores > 0

    def test_overflow_jobs_bounce_while_the_rest_stay_resident(self):
        # Eight equal-weight jobs share four slots.  SWRR picks them
        # cyclically; parking the job just run keeps the first four
        # resident, so about half the quanta hit (LRU misses on every
        # one).  The pool must not move the schedule or any result.
        rounds = 20
        specs = [make_spec(i, max_steps=rounds) for i in range(8)]
        solo = [run_jobs([spec])[0] for spec in specs]

        def serve(capacity):
            coord = Coordinator(max_running=8, pool_capacity=capacity)
            order = []

            async def record(handle):
                async for event in handle.watch():
                    if event.kind == "round":
                        order.append((event.job_id, event.step))

            async def _run():
                handles = [coord.submit(spec) for spec in specs]
                watchers = [
                    asyncio.create_task(record(handle)) for handle in handles
                ]
                await asyncio.sleep(0)  # attach every watcher first
                await coord.drain()
                await asyncio.gather(*watchers)
                return [await handle.result() for handle in handles]

            with coord:
                return asyncio.run(_run()), order, coord.pool.stats

        reports, order, stats = serve(4)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in solo]
        assert stats.hits / (stats.hits + stats.builds) >= 0.45
        assert stats.restores == 4 * rounds
        unbounded_reports, unbounded_order, unbounded = serve(8)
        assert unbounded.evictions == 0
        assert len(order) == 8 * rounds
        assert order == unbounded_order
        assert [r.to_dict() for r in unbounded_reports] == [
            r.to_dict() for r in solo
        ]

    def test_async_jobs_survive_eviction(self):
        specs = [make_spec(i, rule="async", max_steps=40) for i in range(3)]
        baseline = run_jobs(specs)
        reports, _ = run_coordinator(specs, pool_capacity=0)
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in baseline
        ]


class TestWorkerPoolMechanics:
    def test_parks_the_job_just_released(self):
        pool = WorkerPool(capacity=1)
        jobs = [
            Job(job_id=f"j{i}", name=f"j{i}", spec=make_spec(i), seq=i)
            for i in range(2)
        ]

        def quantum(job):
            runner = pool.acquire(job)
            pool.release(job)
            return runner

        quantum(jobs[0])
        runner = quantum(jobs[0])
        assert runner is jobs[0].runner
        quantum(jobs[1])
        # j1 was released last: it is parked to snapshot, j0 stays.
        assert jobs[1].runner is None
        assert jobs[1].checkpoint_state is not None
        assert not pool.resident("j1")
        assert pool.resident("j0") and jobs[0].runner is runner
        assert pool.stats.to_dict() == {
            "builds": 2, "restores": 0, "hits": 1, "evictions": 1,
        }
        # Another cycle: j0 hits again, j1 is restored and re-parked.
        assert quantum(jobs[0]) is runner
        quantum(jobs[1])
        assert jobs[1].runner is None and pool.resident("j0")
        assert pool.stats.to_dict() == {
            "builds": 3, "restores": 1, "hits": 2, "evictions": 2,
        }

    def test_gc_memo_survives_eviction_and_restore(self):
        # Each quantum parks the job just run, so every later quantum
        # restores it from its plan; the plan's classic-GC strategy
        # keeps its decode-vector memo across all of them.
        pool = WorkerPool(capacity=1)
        specs = [make_spec(i, max_steps=12, scheme="gc") for i in range(2)]
        jobs = [
            Job(job_id=f"g{i}", name=f"g{i}", spec=spec, seq=i)
            for i, spec in enumerate(specs)
        ]
        hits = {job.job_id: [] for job in jobs}
        reports = {}
        while len(reports) < len(jobs):
            for job in jobs:
                if job.job_id in reports:
                    continue
                runner = pool.acquire(job)
                if runner.step():
                    reports[job.job_id] = runner.report().to_dict()
                hits[job.job_id].append(job.plan.strategy.decode_cache.hits)
                pool.release(job)
        assert pool.stats.restores > 0
        for job, spec in zip(jobs, specs):
            assert reports[job.job_id] == build_run_report(
                run_spec(spec), spec=spec
            ).to_dict()
            assert hits[job.job_id][-1] > hits[job.job_id][0]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ServeError):
            WorkerPool(capacity=-1)

    def test_clear_parks_everything(self):
        pool = WorkerPool(capacity=4)
        job = Job(job_id="j0", name="j0", spec=make_spec(0), seq=0)
        pool.acquire(job)
        pool.release(job)
        pool.clear()
        assert job.runner is None
        assert job.checkpoint_state is not None

    def test_runner_resumes_from_parked_state(self):
        spec = make_spec(0)
        straight = JobRunner(spec)
        while not straight.step():
            pass
        baseline = straight.report().to_dict()

        first = JobRunner(spec)
        first.step(); first.step()
        state = first.checkpoint()
        first.release()
        second = JobRunner(spec, checkpoint=state)
        assert second.rounds_done == 2
        while not second.step():
            pass
        assert second.report().to_dict() == baseline
        # ...and the same from the first runner's plan instead of the
        # spec: only mutable state is instantiated.
        third = JobRunner(spec, checkpoint=state, plan=first.plan)
        assert third.plan is first.plan and third.engine is not first.engine
        while not third.step():
            pass
        assert third.report().to_dict() == baseline

    @pytest.mark.parametrize("over,field", [
        (dict(rule="async"), "'mode' is 'rounds'"),
        (dict(rule="local-update"), "section 'rule'"),
        (dict(scheme="is-sgd"), "section 'strategy'"),
        # Alike in every section's shape: only the spec fingerprint
        # the state carries tells these apart.
        (dict(scheme="is-gc-fr"), "spec fingerprint"),
        (dict(seed=51), "spec fingerprint"),
        (dict(learning_rate=0.6), "spec fingerprint"),
    ])
    def test_runner_refuses_another_specs_state(self, over, field):
        # Used to be accepted silently (or die with a bare KeyError:
        # 'fetch_version' for the async spec).
        first = JobRunner(make_spec(0))
        first.step()
        state = first.checkpoint()
        with pytest.raises(TrainingError, match=field):
            JobRunner(make_spec(0, **over), checkpoint=state)


# ----------------------------------------------------------------------
# Crash recovery across real process boundaries


def _submit_jobs(mailbox_root, specs, tmp_path, trace=True):
    client = CoordinatorClient(mailbox_root)
    ids = []
    for i, spec in enumerate(specs):
        path = tmp_path / f"spec-{i}.json"
        path.write_text(json.dumps(spec.to_dict()))
        ids.append(client.submit(path, trace=True if trace else None))
    return client, ids


class TestCrashRecovery:
    def test_sigkill_then_restart_completes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        # Long enough that the kill below lands mid-run: a drain of
        # 3 x 8 rounds can finish between two of its 20-ms polls.
        specs = [make_spec(i, max_steps=100) for i in range(3)]
        solo = []
        for i, spec in enumerate(specs):
            solo.extend(run_jobs([spec], trace_dir=tmp_path / f"solo-{i}"))

        mb = tmp_path / "mb"
        trace_dir = tmp_path / "traces"
        client, ids = _submit_jobs(mb, specs, tmp_path)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(mb),
                "--trace-dir", str(trace_dir),
                "--poll-interval", "0.02",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until at least one job has made round progress, so
            # the kill lands mid-run with live checkpoints on disk.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snaps = [client.state(job_id) or {} for job_id in ids]
                if any(
                    int(s.get("rounds_done", 0) or 0) >= 2 for s in snaps
                ):
                    break
                if all(s.get("state") == "done" for s in snaps):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("coordinator made no progress before kill")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        # The killed coordinator left its marker and checkpoints.
        assert (mb / "coordinator.json").exists()
        assert list((mb / "checkpoints").glob("*.json"))

        # A fresh coordinator takes over the stale marker, re-admits
        # every non-terminal job from its checkpoint, and completes —
        # through a pool too small to keep them resident, deriving one
        # plan per resumed job however often it is parked.
        resumed = [
            job_id for job_id in ids
            if (client.state(job_id) or {}).get("state") != "done"
        ]
        counts = count_plan_derivations(monkeypatch)
        drain(mb, trace_dir=trace_dir, max_running=2, pool_capacity=1)
        assert counts["datasets"] == len(resumed)
        for job_id, straight in zip(ids, solo):
            snap = client.state(job_id)
            assert snap["state"] == "done", snap
            assert strip_trace(snap["report"]) == strip_trace(
                straight.to_dict()
            )
            assert (
                pathlib.Path(snap["report"]["trace_path"]).read_bytes()
                == pathlib.Path(straight.trace_path).read_bytes()
            )
        # Terminal jobs leave no checkpoint records behind.
        assert list((mb / "checkpoints").glob("*.json")) == []

    def test_stale_marker_taken_over(self, tmp_path):
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(
            mb, [make_spec(0, max_steps=3)], tmp_path, trace=False
        )
        # A dead pid: a subprocess that has already exited.
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        (mb / "coordinator.json").write_text(json.dumps({
            "mode": "deterministic", "max_running": 4,
            "queue_limit": 64, "pid": dead.pid,
        }))
        drain(mb)
        assert client.state(ids[0])["state"] == "done"

    def test_live_foreign_coordinator_refused(self, tmp_path):
        mb = tmp_path / "mb"
        ServeMailbox(mb)  # create layout
        holder = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(30)"]
        )
        try:
            (mb / "coordinator.json").write_text(json.dumps({
                "mode": "live", "max_running": 4,
                "queue_limit": 64, "pid": holder.pid,
            }))
            with pytest.raises(ServeError, match="already served"):
                drain(mb)
        finally:
            holder.kill()
            holder.wait()

    def test_recovery_restores_scheduling_class(self, tmp_path):
        # A checkpointed high-priority job keeps its class on re-admission.
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(make_spec(0, max_steps=3).to_dict()))
        job_id = client.submit(
            spec_path, priority=2, deadline=9.0, weight=3
        )
        coord = Coordinator()
        mailbox = ServeMailbox(mb)
        with coord:
            asyncio.run(coord.serve(mailbox, once=True))
        record = client.state(job_id)
        assert record["state"] == "done"
        assert record["priority"] == 2
        assert record["deadline"] == 9.0
        assert record["weight"] == 3


# ----------------------------------------------------------------------
# Checkpoints: a head written at admission + one round-log line a round


class SimulatedCrash(Exception):
    """Stands in for SIGKILL at a chosen point of the write path."""


#: where a simulated kill lands around a round's one append.
CRASH_POINTS = ("before", "torn", "after")


@contextlib.contextmanager
def crash_at_append(nth, point="before", directory="checkpoints"):
    """Die at ``point`` of the ``nth`` append to a log in ``directory``
    (a round log unless told otherwise) inside the block: before any of
    its bytes, halfway through its line, or once the whole line is on
    disk but before the coordinator goes on."""
    real = mailbox_module._append
    seen = itertools.count(1)

    def append(path, line):
        if path.parent.name == directory and next(seen) == nth:
            if point == "torn":
                real(path, line[: len(line) // 2])
            elif point == "after":
                real(path, line)
            raise SimulatedCrash
        real(path, line)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mailbox_module, "_append", append)
        with pytest.raises(SimulatedCrash):
            yield


def serve_until_crash(mb, nth, point="before", **kwargs):
    """Serve ``mb`` and die at ``point`` of the ``nth`` round append."""
    with crash_at_append(nth, point):
        drain(mb, **kwargs)


def head_path(mb, job_id):
    return mb / "checkpoints" / f"{job_id}.json"


def head_of(mb, job_id):
    return json.loads(head_path(mb, job_id).read_text())


def log_of(mb, job_id):
    return mb / "checkpoints" / f"{job_id}.rounds.jsonl"


def round_lines(mb, job_id):
    """The complete lines of a job's round log, decoded."""
    data = log_of(mb, job_id).read_bytes()
    complete = data[: data.rfind(b"\n") + 1]
    return [json.loads(line) for line in complete.splitlines()]


def logged_steps(mb, job_id):
    return [
        record["step"]
        for line in round_lines(mb, job_id)
        for record in line["records"]
    ]


def solo_runs(specs, tmp_path):
    solo = []
    for i, spec in enumerate(specs):
        solo.extend(run_jobs([spec], trace_dir=tmp_path / f"solo-{i}"))
    return solo


def assert_finished_like(client, ids, solo):
    """Every job done, report and trace bytes equal to its solo run."""
    for job_id, straight in zip(ids, solo):
        snap = client.state(job_id)
        assert snap["state"] == "done", snap
        assert strip_trace(snap["report"]) == strip_trace(straight.to_dict())
        assert (
            pathlib.Path(snap["report"]["trace_path"]).read_bytes()
            == pathlib.Path(straight.trace_path).read_bytes()
        )


def compact(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestIncrementalCheckpoints:
    def crashed_mailbox(
        self, tmp_path, nth=5, jobs=2, max_steps=8, point="before"
    ):
        """A mailbox whose coordinator died mid-write, plus the truth."""
        specs = [make_spec(i, max_steps=max_steps) for i in range(jobs)]
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(mb, specs, tmp_path)
        serve_until_crash(mb, nth, point, trace_dir=tmp_path / "traces")
        return mb, client, ids, solo_runs(specs, tmp_path)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_around_the_round_append(self, tmp_path, point):
        mb, client, ids, solo = self.crashed_mailbox(tmp_path, point=point)
        # The fifth append is the first job's third round.
        rounds = {ids[0]: 3 if point == "after" else 2, ids[1]: 2}
        for job_id in ids:
            lines = round_lines(mb, job_id)
            assert len(lines) == rounds[job_id]
            assert [line["rounds_done"] for line in lines] == list(
                range(1, rounds[job_id] + 1)
            )
            assert all(len(line["records"]) == 1 for line in lines)
            assert lines[-1]["engine_state"]["records"] == []
            head = head_of(mb, job_id)
            assert "engine_state" not in head and "rounds_done" not in head
        torn = log_of(mb, ids[0]).read_bytes()
        assert torn.endswith(b"\n") is (point != "torn")

        records = ServeMailbox(mb).poll_checkpoints()
        assert [r.job_id for r in records] == ids
        for record in records:
            state = record.engine_state
            assert state.round_index == rounds[record.job_id]
            assert len(state.records) == state.round_index
            # A torn last line is cut off the file itself.
            assert log_of(mb, record.job_id).read_bytes().endswith(b"\n")

        drain(mb, trace_dir=tmp_path / "traces")
        assert_finished_like(client, ids, solo)
        assert list((mb / "checkpoints").iterdir()) == []

    def test_torn_final_log_line_is_dropped(self, tmp_path):
        mb, client, ids, solo = self.crashed_mailbox(tmp_path)
        for job_id in ids:
            with open(log_of(mb, job_id), "ab") as log:
                log.write(b'{"engine_state": {"versi')
        drain(mb, trace_dir=tmp_path / "traces")
        assert_finished_like(client, ids, solo)

    def test_job_submitted_before_the_mailbox_resumes(self, tmp_path):
        # Submitted in-process, a job has neither head nor round log
        # when serve() attaches the mailbox: its first checkpoint writes
        # a one-line log holding its whole history, then its head.
        specs = [make_spec(i, max_steps=8) for i in range(2)]
        mb, traces = tmp_path / "mb", tmp_path / "traces"
        coord = Coordinator(trace_dir=traces)
        with coord:
            ids = [coord.submit(spec, trace=True).job_id for spec in specs]
            assert not (mb / "checkpoints").exists()
            with crash_at_append(1, "after"):
                asyncio.run(coord.serve(ServeMailbox(mb), once=True))
        # Each job's first checkpoint was a whole-history rewrite; the
        # first round after it was the one append.
        assert [len(round_lines(mb, j)) for j in ids] == [2, 1]
        for job_id in ids:
            first = round_lines(mb, job_id)[0]
            assert len(first["records"]) == first["rounds_done"] == 1
            assert "engine_state" not in head_of(mb, job_id)
            assert logged_steps(mb, job_id) == list(
                range(round_lines(mb, job_id)[-1]["rounds_done"])
            )
        drain(mb, trace_dir=traces)
        client = CoordinatorClient(mb)
        assert_finished_like(client, ids, solo_runs(specs, tmp_path))
        assert list((mb / "checkpoints").iterdir()) == []

    def test_recovery_repersist_does_not_double_append(self, tmp_path):
        mb, client, ids, solo = self.crashed_mailbox(tmp_path)
        files = {
            j: (head_path(mb, j).read_bytes(), log_of(mb, j).read_bytes())
            for j in ids
        }
        # A second coordinator recovers both jobs, which writes nothing,
        # and dies in its first round's append.
        serve_until_crash(mb, 1, trace_dir=tmp_path / "traces")
        assert files == {
            j: (head_path(mb, j).read_bytes(), log_of(mb, j).read_bytes())
            for j in ids
        }
        for job_id in ids:
            steps = logged_steps(mb, job_id)
            assert steps == list(range(len(steps)))
        drain(mb, trace_dir=tmp_path / "traces")
        assert_finished_like(client, ids, solo)
        assert list((mb / "checkpoints").iterdir()) == []

    def test_round_cost_does_not_grow_with_the_job(self, tmp_path):
        mb = tmp_path / "mb"
        _submit_jobs(mb, [make_spec(0, max_steps=100)], tmp_path, trace=False)
        seen = {}
        real = ServeMailbox.write_checkpoint

        def write(mailbox, job, state):
            real(mailbox, job, state)
            head = head_path(mb, job.job_id).stat()
            lines = log_of(mb, job.job_id).read_bytes().splitlines()
            seen[job.rounds_done] = (
                (head.st_ino, head.st_mtime_ns, head.st_size),
                len(lines),
                len(lines[-1]) if lines else 0,
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ServeMailbox, "write_checkpoint", write)
            drain(mb)
        assert sorted(seen) == list(range(0, 100))
        # The head is written once, at admission, and never again.
        assert len({head for head, _, _ in seen.values()}) == 1
        assert all(lines == done for done, (_, lines, _) in seen.items())
        # Each round appends one line holding nothing that grows with
        # the run: over 99 rounds only the widths of a few numbers move.
        sizes = [size for done, (_, _, size) in seen.items() if done]
        assert seen[90][2] <= 2 * seen[10][2]
        assert max(sizes) - min(sizes) < 64

    def test_async_jobs_log_one_line_per_quantum(self, tmp_path):
        spec = make_spec(0, rule="async", max_steps=100)
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(mb, [spec], tmp_path, trace=False)
        serve_until_crash(mb, 3)
        lines = round_lines(mb, ids[0])
        assert [len(line["records"]) for line in lines] == [32, 32]
        assert lines[-1]["rounds_done"] == 64
        assert lines[-1]["engine_state"]["async_records"] == []
        drain(mb)
        (straight,) = run_jobs([spec])
        assert client.state(ids[0])["report"] == straight.to_dict()

    def test_terminal_jobs_leave_nothing_under_checkpoints(self, tmp_path):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        # Two samples pass admission and fail the job when its engine
        # splits them into 4 partitions.
        bad = dict(make_spec(1).to_dict(), dataset={"samples": 2})
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        done = client.submit(make_spec(0))
        failed = client.submit(tmp_path / "bad.json")
        cancelled = client.submit(make_spec(2))
        client.cancel(cancelled)
        drain(mb, max_running=1)
        states = [client.state(j)["state"] for j in (done, failed, cancelled)]
        assert states == ["done", "failed", "cancelled"]
        assert list((mb / "checkpoints").iterdir()) == []

    def test_stranded_log_is_swept_at_recovery(self, tmp_path):
        # clear_checkpoint unlinks the head first; a crash before the
        # second unlink leaves a log nobody counts.
        mb, client, ids, solo = self.crashed_mailbox(tmp_path)
        head_path(mb, ids[0]).unlink()
        records = ServeMailbox(mb).poll_checkpoints()
        assert [r.job_id for r in records] == ids[1:]
        assert not log_of(mb, ids[0]).exists()
        assert log_of(mb, ids[1]).exists()

    def test_stranded_temp_files_are_swept_at_recovery(self, tmp_path):
        # A kill between a temp file's write and its os.replace leaves
        # the temp file; the next start-up removes it, so a clean drain
        # still leaves the directory empty.
        mb, client, ids, solo = self.crashed_mailbox(tmp_path)
        for name in (f"{ids[0]}.json.tmp", f"{ids[1]}.rounds.jsonl.tmp"):
            (mb / "checkpoints" / name).write_text('{"id": "half')
        drain(mb, trace_dir=tmp_path / "traces")
        assert_finished_like(client, ids, solo)
        assert list((mb / "checkpoints").iterdir()) == []

    def test_a_running_round_replaces_no_file(self, tmp_path):
        # The mechanism, counted rather than timed: a drained mailbox
        # renames one head per admission and the serving marker into
        # place, whatever the round count; state transitions append.
        def replaced(rounds):
            mb = tmp_path / f"mb-{rounds}"
            specs = [make_spec(i, max_steps=rounds) for i in range(3)]
            _submit_jobs(mb, specs, tmp_path, trace=False)
            real_replace = os.replace
            real_write = mailbox_module._atomic_write
            replaces, writes = [], []

            def replace(src, dst, *args, **kwargs):
                replaces.append(pathlib.Path(dst))
                real_replace(src, dst, *args, **kwargs)

            def write(path, payload):
                writes.append(path)
                real_write(path, payload)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "replace", replace)
                patch.setattr(mailbox_module, "_atomic_write", write)
                drain(mb)
            assert replaces == writes
            return collections.Counter(
                path.name if path.parent == mb else path.parent.name
                for path in writes
            )

        counts = replaced(20)
        assert counts == {
            "coordinator.json": 1,
            "checkpoints": 3,  # admissions
        }
        assert replaced(2) == counts


def record_state_files(patch):
    """Log ``(job id, state)`` for every line appended to a
    ``jobs/<id>.jsonl`` state log."""
    real = mailbox_module._append
    written = []

    def append(path, line):
        if path.parent.name == "jobs":
            assert line.endswith("\n") and line.count("\n") == 1
            written.append((path.stem, json.loads(line)["state"]))
        real(path, line)

    patch.setattr(mailbox_module, "_append", append)
    return written


def state_lines(mb, job_id):
    """The lines of a job's state log, decoded."""
    path = mb / "jobs" / f"{job_id}.jsonl"
    return [json.loads(line) for line in path.read_bytes().splitlines()]


class TestStatePublication:
    """``jobs/<id>.jsonl`` gains one line per state transition; file
    clients read a job's state from its last line and a live job's
    progress from its round log."""

    def test_a_job_writes_its_state_file_once_per_transition(
        self, tmp_path
    ):
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(
            mb, [make_spec(0, max_steps=7)], tmp_path, trace=False
        )
        with pytest.MonkeyPatch.context() as patch:
            written = record_state_files(patch)
            drain(mb)
        assert written == [(ids[0], s) for s in ("queued", "running", "done")]
        assert [
            (line["id"], line["state"]) for line in state_lines(mb, ids[0])
        ] == written
        assert client.state(ids[0])["rounds_done"] == 7

    def test_long_lived_coordinator_writes_each_terminal_state_once(
        self, tmp_path
    ):
        # Four serve waves through one coordinator, one job each: every
        # wave publishes its own job's terminal state and nothing else's.
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        mailbox = ServeMailbox(mb)
        coord = Coordinator()
        ids = [f"wave-{wave}" for wave in range(4)]

        async def waves():
            for wave, job_id in enumerate(ids):
                client.submit(make_spec(wave, max_steps=3), job_id=job_id)
                await coord.serve(mailbox, once=True)

        with pytest.MonkeyPatch.context() as patch:
            written = record_state_files(patch)
            with coord:
                asyncio.run(waves())
        done = [job_id for job_id, state in written if state == "done"]
        assert done == ids
        assert len(written) == 3 * len(ids)

    def test_a_drain_replaces_no_existing_file(self, tmp_path):
        # Counted, not timed: renaming over an existing file frees the
        # replaced file's blocks (tens of milliseconds on ext4), so no
        # transition of a job that ends done, failed or cancelled may
        # replace a file; a rename onto a new name is cheap.
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        bad = dict(make_spec(1).to_dict(), dataset={"samples": 2})
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        done = client.submit(make_spec(0))
        failed = client.submit(tmp_path / "bad.json")
        cancelled = client.submit(make_spec(2))
        client.cancel(cancelled)
        real_replace = mailbox_module.os.replace
        replaced, overwritten = [], []

        def replace(src, dst, *args, **kwargs):
            replaced.append(pathlib.Path(dst).parent.name)
            if os.path.exists(dst):
                overwritten.append(dst)
            real_replace(src, dst, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mailbox_module.os, "replace", replace)
            drain(mb, max_running=1)
        states = [client.state(j)["state"] for j in (done, failed, cancelled)]
        assert states == ["done", "failed", "cancelled"]
        # The serving marker and three checkpoint heads, all new names.
        assert sorted(replaced) == ["checkpoints"] * 3 + ["mb"]
        assert overwritten == []

    def test_torn_terminal_line_is_cut_and_the_job_resumes(self, tmp_path):
        spec = make_spec(0, max_steps=5)
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(mb, [spec], tmp_path, trace=False)
        job_id = ids[0]
        # The third state line (queued, running, done) is torn.
        with crash_at_append(3, "torn", directory="jobs"):
            drain(mb)
        log = mb / "jobs" / f"{job_id}.jsonl"
        assert not log.read_bytes().endswith(b"\n")
        assert client.state(job_id)["state"] == "running"
        # Recovery cuts the torn line and re-admits the job, whose next
        # transitions append onto a clean line.
        drain(mb)
        assert [line["state"] for line in state_lines(mb, job_id)] == [
            "queued", "running", "queued", "running", "done",
        ]
        snapshot = client.state(job_id)
        assert snapshot["state"] == "done"
        expected = build_run_report(run_spec(spec), spec=spec).to_dict()
        assert strip_trace(snapshot["report"]) == strip_trace(expected)
        assert list((mb / "checkpoints").iterdir()) == []

    def test_state_log_without_a_complete_line_is_removed(self, tmp_path):
        mb = tmp_path / "mb"
        mailbox = ServeMailbox(mb)
        log = mb / "jobs" / "half.jsonl"
        log.write_text('{"id": "half", "sta')
        assert CoordinatorClient(mb).state("half") is None
        assert mailbox.published_state("half") is None
        assert not log.exists()

    def test_live_progress_comes_from_the_log(self, tmp_path):
        mb = tmp_path / "mb"
        specs = [make_spec(i, max_steps=6 + 2 * i) for i in range(2)]
        client, ids = _submit_jobs(mb, specs, tmp_path, trace=False)
        coord = Coordinator(max_running=2)
        seen = {job_id: [] for job_id in ids}

        async def main():
            serving = asyncio.create_task(
                coord.serve(ServeMailbox(mb), once=True)
            )
            # The coordinator yields after every quantum, so each pass
            # of this loop observes one round boundary.
            while not serving.done():
                listed = {snap["id"]: snap for snap in client.jobs()}
                for job_id in ids:
                    snap = client.state(job_id)
                    assert listed[job_id] == snap
                    if snap["state"] == "running" and log_of(
                        mb, job_id
                    ).exists():
                        lines = round_lines(mb, job_id)
                        assert snap["rounds_done"] == (
                            lines[-1]["rounds_done"] if lines else 0
                        )
                    seen[job_id].append(snap.get("rounds_done", 0))
                await asyncio.sleep(0)
            await serving

        with coord:
            asyncio.run(main())
        for job_id, spec in zip(ids, specs):
            rounds = seen[job_id]
            assert rounds == sorted(rounds)
            # Every round boundary a running job passes is visible.
            assert set(range(1, spec.max_steps)) <= set(rounds)
            assert client.state(job_id)["rounds_done"] == spec.max_steps

    def test_progress_reads_the_last_line_of_a_long_log(self, tmp_path):
        # One line can hold a whole history (a converted job), and a
        # torn append can follow it: the client reads backwards past
        # both, however long the line.
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(mb, [make_spec(0)], tmp_path, trace=False)
        serve_until_crash(mb, 4)
        log = log_of(mb, ids[0])
        line = json.loads(log.read_bytes().splitlines()[-1])
        line["records"] = line["records"] * 5000
        line["rounds_done"] = 7
        log.write_text(compact(line) + "\n" + '{"engine_state": {"ve')
        assert log.stat().st_size > 10 * 4096
        assert client.state(ids[0])["rounds_done"] == 7

    @pytest.mark.parametrize("damage", ["delete", "torn", "not-a-line"])
    def test_missing_or_unreadable_log_falls_back_to_the_snapshot(
        self, tmp_path, damage
    ):
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(mb, [make_spec(0)], tmp_path, trace=False)
        serve_until_crash(mb, 4)
        job_id = ids[0]
        log = log_of(mb, job_id)
        assert client.state(job_id)["rounds_done"] == 3
        snapshot = state_lines(mb, job_id)[-1]
        assert snapshot["state"] == "running"
        if damage == "delete":
            log.unlink()
        elif damage == "torn":
            log.write_bytes(log.read_bytes()[:40])
        else:
            log.write_text("[3]\n")
        assert client.state(job_id) == snapshot
        assert client.jobs() == [snapshot]

    def test_recovered_queued_job_shows_its_checkpointed_rounds(
        self, tmp_path
    ):
        mb = tmp_path / "mb"
        specs = [make_spec(i, max_steps=8) for i in range(2)]
        client, ids = _submit_jobs(mb, specs, tmp_path, trace=False)
        serve_until_crash(mb, 5)
        checkpointed = round_lines(mb, ids[1])[-1]["rounds_done"]
        assert checkpointed > 0
        # One running slot: the second recovered job waits queued while
        # the first finishes.
        coord = Coordinator(max_running=1)
        queued = []

        async def main():
            serving = asyncio.create_task(
                coord.serve(ServeMailbox(mb), once=True)
            )
            while not serving.done():
                snap = client.state(ids[1])
                if snap["state"] == "queued":
                    queued.append(snap["rounds_done"])
                await asyncio.sleep(0)
            await serving

        with coord:
            asyncio.run(main())
        assert queued and set(queued) == {checkpointed}
        assert client.state(ids[1])["state"] == "done"


def _edit_line(log, index, edit):
    """Apply ``edit`` to one decoded line of a round log, in place."""
    lines = [json.loads(line) for line in log.read_bytes().splitlines()]
    edit(lines[index])
    log.write_text("".join(json.dumps(line) + "\n" for line in lines))


def _skew_version(head, log):
    _edit_line(log, -1, lambda line: line["engine_state"].update(version=99))


def _truncate_state(head, log):
    _edit_line(log, -1, lambda line: line.update(
        engine_state={"version": STATE_VERSION, "mode": "rounds"}
    ))


def _version_one_state(head, log):
    _edit_line(log, -1, lambda line: line["engine_state"].update(version=1))


def _versionless_state(head, log):
    _edit_line(log, -1, lambda line: line["engine_state"].pop("version"))


def _engine_state_in_the_head(head, log):
    # The earlier layouts kept the engine state in the head.
    head["engine_state"] = None


def _non_mapping_state(head, log):
    _edit_line(log, -1, lambda line: line.update(engine_state=[1, 2, 3]))


def _null_weight(head, log):
    head["weight"] = None


def _float_weight(head, log):
    head["weight"] = 2.7


def _string_weight(head, log):
    head["weight"] = "3"


def _bool_weight(head, log):
    head["weight"] = True


def _overcount(head, log):
    _edit_line(log, -1, lambda line: line["records"].append(
        line["records"][-1]
    ))


def _count_disagrees_with_state(head, log):
    def advance(line):
        line["engine_state"]["round_index"] += 1
        line["rounds_done"] += 1
    _edit_line(log, -1, advance)


def _drop_log(head, log):
    log.unlink()


def _shorten_log(head, log):
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[1:]))


def _garble_counted_line(head, log):
    lines = log.read_bytes().splitlines(keepends=True)
    lines[0] = b"{not json}\n"
    log.write_bytes(b"".join(lines))


def _counted_line_not_a_record(head, log):
    _edit_line(log, 0, lambda line: line.update(records=[{"step": 0}]))


class TestHostileCheckpoints:
    """Every unreadable checkpoint ends in ``rejected/``; its peer resumes."""

    @pytest.mark.parametrize("damage", [
        _skew_version, _version_one_state, _versionless_state,
        _engine_state_in_the_head, _truncate_state, _non_mapping_state,
        _null_weight,
        _float_weight, _string_weight, _bool_weight,
        _overcount, _count_disagrees_with_state, _drop_log, _shorten_log,
        _garble_counted_line, _counted_line_not_a_record,
    ])
    def test_rejected_without_stranding_the_peer(self, tmp_path, damage):
        specs = [make_spec(i, max_steps=8) for i in range(2)]
        mb = tmp_path / "mb"
        client, ids = _submit_jobs(mb, specs, tmp_path)
        serve_until_crash(mb, 6, trace_dir=tmp_path / "traces")
        victim, peer = ids
        head = head_of(mb, victim)
        damage(head, log_of(mb, victim))
        head_path(mb, victim).write_text(json.dumps(head))

        drain(mb, trace_dir=tmp_path / "traces")
        record = json.loads((mb / "rejected" / f"{victim}.json").read_text())
        assert record["state"] == "rejected"
        assert record["reason"] == "invalid_checkpoint"
        assert record["error"].startswith("unreadable checkpoint: ")
        # The rejection is final, though the state log last said running.
        assert client.state(victim) == record
        assert_finished_like(client, [peer], solo_runs(specs, tmp_path)[1:])
        assert list((mb / "checkpoints").iterdir()) == []

    def test_head_carrying_engine_state_is_an_earlier_layout(self, tmp_path):
        # A head that carries the engine state, as the earlier layouts
        # wrote it (rounds done and the whole history inline), is
        # refused, not converted; its peer still finishes.
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        runner = JobRunner(make_spec(0))
        runner.step()
        payload = {
            "id": "earlier", "name": "earlier", "weight": 1,
            "rounds_done": 1, "spec": make_spec(0).to_dict(),
            "engine_state": runner.checkpoint().to_dict(),
        }
        (mb / "checkpoints" / "earlier.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
        peer = client.submit(make_spec(1))
        drain(mb)
        record = client.state("earlier")
        assert record["reason"] == "invalid_checkpoint"
        assert "earlier layout" in record["error"]
        assert client.state(peer)["state"] == "done"
        assert list((mb / "checkpoints").iterdir()) == []


# ----------------------------------------------------------------------
# Scheduling classes: priorities, deadlines, per-tier fairness


def _class_jobs(entries):
    return [
        Job(
            job_id=f"fake-{i}",
            name=f"fake-{i}",
            spec=None,
            weight=w,
            priority=p,
            deadline=d,
            seq=i,
        )
        for i, (w, p, d) in enumerate(entries)
    ]


class TestSchedulingClasses:
    def test_scheduling_class_validation(self):
        with pytest.raises(ServeError):
            SchedulingClass(weight=0)
        with pytest.raises(ServeError):
            SchedulingClass(deadline=0.0)
        assert SchedulingClass().priority == 0

    @pytest.mark.parametrize("deadline", [math.nan, math.inf])
    def test_scheduling_class_refuses_a_non_finite_deadline(self, deadline):
        # A NaN deadline makes the EDF tie-break follow iteration order.
        with pytest.raises(ServeError, match="positive finite number"):
            SchedulingClass(name="x", deadline=deadline)

    @pytest.mark.parametrize("deadline", [math.nan, math.inf])
    def test_submit_refuses_a_non_finite_deadline(self, deadline):
        with Coordinator() as coord:
            with pytest.raises(ServeError, match="positive finite number"):
                coord.submit(make_spec(0, max_steps=2), deadline=deadline)
            assert coord.jobs() == []

    @pytest.mark.parametrize("deadline", [math.nan, math.inf])
    def test_inbox_refuses_a_non_finite_deadline(self, tmp_path, deadline):
        # json spells these NaN and Infinity, and json.loads takes both.
        # The client refuses them, so the entry is written by hand, as
        # any other writer of the inbox could.
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        job_id = "hand-written"
        entry = mb / "inbox" / f"{job_id}.json"
        entry.write_text(json.dumps({
            "spec": make_spec(0, max_steps=2).to_dict(),
            "weight": 1,
            "deadline": deadline,
        }))
        assert "NaN" in entry.read_text() or "Infinity" in entry.read_text()
        drain(mb)
        record = client.state(job_id)
        assert record["state"] == "rejected"
        assert record["reason"] == "invalid_submission"
        assert "positive finite number" in record["error"]
        assert not (mb / "jobs" / f"{job_id}.jsonl").exists()

    @pytest.mark.parametrize("deadline", [math.nan, math.inf])
    def test_client_refuses_a_non_finite_deadline(self, tmp_path, deadline):
        """`repro submit --deadline nan` fails before the inbox entry is
        written: the client runs the coordinator's field check."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(make_spec(0, max_steps=2).to_dict()))
        mb = tmp_path / "mb"
        rc = cli_main([
            "submit", str(mb), str(spec_path),
            "--deadline", str(deadline),
        ])
        assert rc != 0
        assert list((mb / "inbox").iterdir()) == []

    @pytest.mark.parametrize("field, value", [
        ("weight", 2.7), ("weight", "3"), ("weight", True),
        ("priority", True), ("priority", 1.5),
    ])
    def test_client_refuses_a_non_integer_weight_or_priority(
        self, tmp_path, field, value
    ):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        with pytest.raises(ServeError, match=f"non-integer {field}"):
            client.submit(make_spec(0, max_steps=2), **{field: value})
        assert list((mb / "inbox").iterdir()) == []

    def test_top_tier_drains_first(self):
        jobs = _class_jobs([(1, 0, None), (1, 2, None), (1, 2, None)])
        scheduler = FairScheduler()
        picks = [scheduler.pick(jobs).job_id for _ in range(10)]
        assert set(picks) == {"fake-1", "fake-2"}

    def test_earliest_deadline_breaks_ties(self):
        jobs = _class_jobs([
            (1, 0, None), (1, 0, 5.0), (1, 0, 1.0),
        ])
        scheduler = FairScheduler()
        # Equal weights, equal credit: first pick goes to the tightest
        # deadline; jobs without deadlines sort last.
        assert scheduler.pick(jobs).job_id == "fake-2"

    def test_default_class_reduces_to_classic_swrr(self):
        # priority 0 / no deadline must reproduce the historical
        # scheduler's smooth-WRR decisions exactly (same credits, same
        # admission-order tie-break) — the byte-compat guarantee for
        # default-class jobs.
        weights = [3, 1, 2]
        jobs = _class_jobs([(w, 0, None) for w in weights])
        scheduler = FairScheduler()
        picks = [scheduler.pick(jobs).job_id for _ in range(50)]

        credits = [0] * len(weights)
        reference = []
        for _ in range(50):
            credits = [c + w for c, w in zip(credits, weights)]
            best = max(range(len(weights)), key=lambda i: (credits[i], -i))
            credits[best] -= sum(weights)
            reference.append(f"fake-{best}")
        assert picks == reference

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=5), min_size=2, max_size=5
        ),
        priorities=st.lists(
            st.integers(min_value=0, max_value=2), min_size=2, max_size=5
        ),
        data=st.data(),
    )
    def test_swrr_within_each_priority_tier(
        self, weights, priorities, data
    ):
        n = min(len(weights), len(priorities))
        weights, priorities = weights[:n], priorities[:n]
        deadlines = [
            data.draw(
                st.one_of(
                    st.none(),
                    st.floats(
                        min_value=0.1, max_value=100,
                        allow_nan=False, allow_infinity=False,
                    ),
                )
            )
            for _ in range(n)
        ]
        jobs = _class_jobs(list(zip(weights, priorities, deadlines)))
        scheduler = FairScheduler()
        quanta = 60 * sum(weights)
        counts = {job.job_id: 0 for job in jobs}
        for _ in range(quanta):
            counts[scheduler.pick(jobs).job_id] += 1
        top = max(priorities)
        tier = [j for j in jobs if j.priority == top]
        tier_weight = sum(j.weight for j in tier)
        # Only the top tier runs while it has runnable jobs...
        for job in jobs:
            if job.priority != top:
                assert counts[job.job_id] == 0
        # ...and within it, each job's share is proportional ±1.
        for job in tier:
            expected = quanta * job.weight / tier_weight
            assert abs(counts[job.job_id] - expected) <= 1

    def test_coordinator_accepts_scheduling_class(self):
        spec = make_spec(0, max_steps=2)
        coord = Coordinator()

        async def scenario():
            gold = coord.submit(
                spec, scheduling_class=SchedulingClass(
                    name="gold", priority=2, weight=3, deadline=40.0
                )
            )
            plain = coord.submit(make_spec(1, max_steps=2))
            await coord.drain()
            return gold, plain

        with coord:
            gold, plain = asyncio.run(scenario())
        assert gold._job.priority == 2
        assert gold._job.weight == 3
        assert gold._job.deadline == 40.0
        assert plain._job.priority == 0
        assert plain._job.deadline is None


# ----------------------------------------------------------------------
# Structured admission rejections


class TestStructuredRejection:
    def test_admission_error_carries_details(self):
        coord = Coordinator(queue_limit=1)

        async def scenario():
            coord.submit(make_spec(0, max_steps=2))
            with pytest.raises(AdmissionError) as excinfo:
                coord.submit(make_spec(1, max_steps=2))
            details = excinfo.value.details()
            assert details["reason"] == "queue_limit"
            assert details["queue_depth"] == 1
            assert details["queue_limit"] == 1
            assert "resubmit" in details["retry_hint"]
            await coord.drain()

        with coord:
            asyncio.run(scenario())

    def test_rejected_record_is_structured(self, tmp_path):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(make_spec(0, max_steps=2).to_dict())
        )
        ids = [client.submit(spec_path) for _ in range(3)]
        drain(mb, queue_limit=1)
        rejected = [
            json.loads(p.read_text())
            for p in sorted((mb / "rejected").glob("*.json"))
        ]
        assert len(rejected) == 2
        for record in rejected:
            assert record["state"] == "rejected"
            assert record["reason"] == "queue_limit"
            assert record["queue_depth"] >= 1
            assert record["queue_limit"] == 1
            assert "resubmit" in record["retry_hint"]
            assert "admission rejected" in record["error"]
        done = client.state(ids[0])
        assert done["state"] == "done"

    @pytest.mark.parametrize(
        "fields, message",
        [case[1:] for case in BAD_ENVIRONMENT_VALUES],
        ids=[case[0] for case in BAD_ENVIRONMENT_VALUES],
    )
    def test_bad_environment_value_is_rejected_not_failed(
        self, tmp_path, fields, message
    ):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec = {**make_spec(0, max_steps=2).to_dict(), **fields}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            client.submit(spec_path)
        # The client refuses the spec, so the entry is written by hand,
        # as any other writer of the inbox could.
        (mb / "inbox" / "bad-env.json").write_text(
            json.dumps({"spec": spec, "weight": 1})
        )
        peer = client.submit(make_spec(1, max_steps=2))
        drain(mb)
        record = client.state("bad-env")
        assert record["state"] == "rejected"
        assert record["reason"] == "invalid_submission"
        assert message in record["error"]
        assert not (mb / "jobs" / "bad-env.jsonl").exists()
        assert client.state(peer)["state"] == "done"

    def test_int_past_the_float_range_is_rejected(self, tmp_path):
        # Admission's number check overflowed on it, which stopped the
        # coordinator at every start while the entry sat in the inbox.
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec = {**make_spec(0, max_steps=2).to_dict(), "learning_rate": 10**400}
        (mb / "inbox" / "huge.json").write_text(
            json.dumps({"spec": spec, "weight": 1})
        )
        peer = client.submit(make_spec(1, max_steps=2))
        drain(mb)
        record = client.state("huge")
        assert record["reason"] == "invalid_submission"
        assert "learning_rate must be a positive real number" in record["error"]
        assert client.state(peer)["state"] == "done"

    def test_vanished_trace_file_is_rejected_at_recovery(self, tmp_path):
        # Recovery re-admits each checkpoint's spec, and admission reads
        # a trace-replay section's file.
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"delays": [[0.5, 0.0, 1.0, 0.2]] * 3}))
        spec = make_spec(
            0, max_steps=8, delay={"kind": "trace-replay", "path": str(trace)}
        )
        mb = tmp_path / "mb"
        client, (job,) = _submit_jobs(mb, [spec], tmp_path, trace=False)
        serve_until_crash(mb, 3)
        assert head_path(mb, job).exists()
        trace.unlink()
        drain(mb)
        record = client.state(job)
        assert record["reason"] == "invalid_checkpoint"
        assert record["error"] == (
            f"unreadable checkpoint: delay: trace file not found: {trace}"
        )
        assert list((mb / "checkpoints").iterdir()) == []

    def test_wait_raises_structured_rejection(self, tmp_path):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(make_spec(0, max_steps=2).to_dict())
        )
        ids = [client.submit(spec_path) for _ in range(2)]
        drain(mb, queue_limit=1)
        with pytest.raises(SubmissionRejectedError) as excinfo:
            client.wait(ids[1], timeout=5)
        assert excinfo.value.reason == "queue_limit"
        assert "resubmit" in excinfo.value.retry_hint

    def test_resubmitting_rejected_id_raises(self, tmp_path):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(make_spec(0, max_steps=2).to_dict())
        )
        ids = [client.submit(spec_path) for _ in range(2)]
        drain(mb, queue_limit=1)
        with pytest.raises(SubmissionRejectedError):
            client.submit(spec_path, job_id=ids[1])


# ----------------------------------------------------------------------
# The sweep submission front end


class TestSweepSubmission:
    def test_hundred_jobs_bit_identical_to_serial_sweep(self, tmp_path):
        base = tiny_spec()
        spec_path = tmp_path / "base.json"
        spec_path.write_text(json.dumps(base.to_dict()))
        mb = tmp_path / "mb"
        seeds = ",".join(str(s) for s in range(25))
        rc = cli_main([
            "submit", str(mb), str(spec_path),
            "--sweep", f"seed={seeds}",
            "--sweep", "learning_rate=0.1,0.3",
            "--sweep", "wait_for=1,2",
        ])
        assert rc == 0
        client = CoordinatorClient(mb)
        pending = [
            s for s in client.jobs() if s["state"] == "submitted"
        ]
        assert len(pending) == 100
        drain(mb, queue_limit=128)

        axes = {
            "seed": list(range(25)),
            "learning_rate": [0.1, 0.3],
            "wait_for": [1, 2],
        }
        sweep = Sweep.over_spec("ground truth", base, axes)
        snapshots = client.jobs()
        assert len(snapshots) == 100
        for snap, params in zip(snapshots, sweep.combinations()):
            assert snap["state"] == "done"
            cell = dataclasses.replace(base, **params)
            expected = build_run_report(
                run_spec_variation(base, **params), spec=cell
            ).to_dict()
            assert strip_trace(snap["report"]) == strip_trace(expected)

    def test_replicates_spawn_parent_seeds(self, tmp_path):
        base = tiny_spec()
        spec_path = tmp_path / "base.json"
        spec_path.write_text(json.dumps(base.to_dict()))
        mb = tmp_path / "mb"
        rc = cli_main([
            "submit", str(mb), str(spec_path),
            "--sweep", "wait_for=1,2", "--jobs", "3",
        ])
        assert rc == 0
        client = CoordinatorClient(mb)
        assert len(client.jobs()) == 6
        # Deterministic: the same command produces the same specs.
        mb2 = tmp_path / "mb2"
        cli_main([
            "submit", str(mb2), str(spec_path),
            "--sweep", "wait_for=1,2", "--jobs", "3",
        ])
        first = sorted(
            json.loads(p.read_text())["spec"]["seed"]
            for p in (mb / "inbox").glob("*.json")
        )
        second = sorted(
            json.loads(p.read_text())["spec"]["seed"]
            for p in (mb2 / "inbox").glob("*.json")
        )
        assert first == second
        assert len(set(first)) == 6  # distinct per replicate

    def test_sweep_with_class_flags(self, tmp_path):
        base = tiny_spec()
        spec_path = tmp_path / "base.json"
        spec_path.write_text(json.dumps(base.to_dict()))
        mb = tmp_path / "mb"
        rc = cli_main([
            "submit", str(mb), str(spec_path),
            "--sweep", "wait_for=1,2",
            "--priority", "2", "--deadline", "60", "--weight", "2",
        ])
        assert rc == 0
        payloads = [
            json.loads(p.read_text())
            for p in sorted((mb / "inbox").glob("*.json"))
        ]
        assert len(payloads) == 2
        for payload in payloads:
            assert payload["priority"] == 2
            assert payload["deadline"] == 60.0
            assert payload["weight"] == 2

    def test_bad_sweep_clause_fails_cleanly(self, tmp_path, capsys):
        base = tiny_spec()
        spec_path = tmp_path / "base.json"
        spec_path.write_text(json.dumps(base.to_dict()))
        rc = cli_main([
            "submit", str(tmp_path / "mb"), str(spec_path),
            "--sweep", "wait_for",
        ])
        assert rc != 0


# ----------------------------------------------------------------------
# The jobs --watch dashboard


class TestWatch:
    def test_watch_exits_when_all_terminal(self, tmp_path, capsys):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(make_spec(0, max_steps=3).to_dict())
        )
        client.submit(spec_path, trace=True)
        drain(mb, trace_dir=tmp_path / "traces")
        rc = cli_main([
            "jobs", str(mb), "--watch", "--interval", "0.01",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all 1 jobs terminal (0 failed)" in out
        # The dashboard aggregates the streamed round traces.
        assert "Round traces" in out
        assert "resume-test-0" in out

    def test_watch_reports_failures_in_exit_code(self, tmp_path, capsys):
        mb = tmp_path / "mb"
        client = CoordinatorClient(mb)
        spec_path = tmp_path / "spec.json"
        # Two samples fail the job when its engine splits them into 4
        # partitions.
        bad = dict(make_spec(0, max_steps=2).to_dict(), dataset={"samples": 2})
        spec_path.write_text(json.dumps(bad))
        client.submit(spec_path)
        drain(mb)
        rc = cli_main([
            "jobs", str(mb), "--watch", "--interval", "0.01",
        ])
        assert rc == 1
        assert "1 failed" in capsys.readouterr().out

    def test_watch_empty_mailbox_exits(self, tmp_path, capsys):
        mb = tmp_path / "mb"
        CoordinatorClient(mb)
        rc = cli_main([
            "jobs", str(mb), "--watch", "--interval", "0.01",
        ])
        assert rc == 0
        assert "no jobs and no coordinator" in capsys.readouterr().out

#!/usr/bin/env python3
"""Serve benchmark: shared worker pool vs per-job engines, plus the
full mailbox smoke gates.

A self-contained script — ``make bench-serve`` and the CI step run it
directly and archive its JSON report.  Five gates, all asserted (the
script exits non-zero on any violation):

* **determinism** — 8 jobs submitted through a file mailbox and run by
  one deterministic coordinator produce reports *and* streamed JSONL
  round traces bit-for-bit identical to 8 sequential single-job runs;
* **lossless traces** — each job's streamed trace re-reads and
  re-aggregates to exactly the loss trajectory its report carries;
* **pool throughput** — the same 8-job grid drained by a shared
  :class:`~repro.serve.WorkerPool` (engines stay resident between
  quanta) must be at least ``MIN_SPEEDUP`` times faster than the
  per-job-engine baseline (``pool_capacity=0``, which snapshots and
  rebuilds every engine on every quantum) — with bit-identical
  reports from both runs;
* **kill/resume** — a coordinator subprocess is SIGKILLed mid-grid; a
  successor takes over the mailbox from the stale marker, re-admits
  the survivors from their checkpoints and finishes them with reports
  and traces bit-for-bit identical to the never-interrupted run,
  leaving ``checkpoints/`` empty (the report records the mean size of
  the checkpoint head a round boundary rewrites);
* **failure isolation (live mode)** — rerunning the same 8 jobs in
  live (thread-pool) mode with one deliberately broken ninth job: the
  bad job FAILs, every peer still matches the deterministic reports.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import (  # noqa: E402
    Coordinator,
    CoordinatorClient,
    ExperimentSpec,
    JobState,
    ServeMailbox,
    aggregate_traces,
    read_traces,
    run_jobs,
)

NUM_JOBS = 8
SCHEMES = ("is-gc-cr", "is-gc-fr", "is-gc-hr", "gc")
#: Shared pool must beat the rebuild-every-quantum baseline by this
#: factor on the 8-job grid (in practice it wins by far more; 1.5 is
#: the regression floor CI enforces).
MIN_SPEEDUP = 1.5


def make_specs():
    """Eight small jobs spanning four placement schemes."""
    specs = []
    for i in range(NUM_JOBS):
        scheme = SCHEMES[i % len(SCHEMES)]
        num_workers, params = 4, {}
        if scheme == "is-gc-hr":
            num_workers = 6
            params = {"c1": 1, "c2": 2, "num_groups": 2}
        specs.append(ExperimentSpec(
            name=f"smoke-{i}",
            scheme=scheme,
            num_workers=num_workers,
            partitions_per_worker=2,
            wait_for=3,
            max_steps=12,
            seed=40 + i,
            scheme_params=params,
        ))
    return specs


def bad_spec():
    """A job that fails at engine build (unknown scheme)."""
    return ExperimentSpec(
        name="smoke-injected-failure",
        scheme="does-not-exist",
        num_workers=4,
        partitions_per_worker=2,
        wait_for=3,
        max_steps=12,
    )


def mailbox_smoke(specs, workdir):
    """Run the 8 jobs via mailbox submissions + a serving coordinator."""
    root = workdir / "mbox"
    trace_dir = workdir / "traces"
    client = CoordinatorClient(root)
    job_ids = [
        client.submit(spec, job_id=f"smoke-{i:02d}")
        for i, spec in enumerate(specs)
    ]
    coordinator = Coordinator(
        mode="deterministic", max_running=4, trace_dir=trace_dir
    )
    with coordinator:
        asyncio.run(coordinator.serve(ServeMailbox(root), once=True))
    snapshots = [client.state(job_id) for job_id in job_ids]
    assert all(s["state"] == "done" for s in snapshots), (
        f"not all jobs finished: {[s['state'] for s in snapshots]}"
    )
    return snapshots


def check_determinism(specs, snapshots, workdir):
    """Mailbox-run reports + traces == sequential single-job runs."""
    for i, (spec, snapshot) in enumerate(zip(specs, snapshots)):
        solo_dir = workdir / f"solo-{i:02d}"
        (solo,) = run_jobs([spec], trace_dir=solo_dir)
        report = dict(snapshot["report"])
        solo_report = solo.to_dict()
        served_trace = pathlib.Path(report.pop("trace_path"))
        solo_trace = pathlib.Path(solo_report.pop("trace_path"))
        assert report == solo_report, (
            f"job {i} diverged from its sequential run:\n"
            f"  served: {report}\n  solo  : {solo_report}"
        )
        assert served_trace.read_bytes() == solo_trace.read_bytes(), (
            f"job {i} trace diverged from its sequential run"
        )


def check_trace_reaggregation(snapshots):
    """Streamed traces re-read + re-aggregate to the reported curves."""
    for snapshot in snapshots:
        report = snapshot["report"]
        traces = read_traces(report["trace_path"])
        assert len(traces) == report["num_steps"], (
            f"{snapshot['id']}: {len(traces)} trace rounds != "
            f"{report['num_steps']} reported steps"
        )
        assert [trace.step for trace in traces] == list(
            range(report["num_steps"])
        ), f"{snapshot['id']}: trace steps are not contiguous"
        # each round's simulated end time is the report's time curve —
        # bit-for-bit, proving the stream lost nothing.
        clocks = [trace.step_end for trace in traces]
        assert clocks == list(report["time_curve"]), (
            f"{snapshot['id']}: trace clocks diverge from the report"
        )
        aggregates = aggregate_traces(traces)
        (label,) = aggregates
        assert aggregates[label].rounds == report["num_steps"]


def _drain_grid(specs, pool_capacity):
    """Drain the grid through one deterministic coordinator; return
    (reports, pool stats)."""

    async def scenario():
        coordinator = Coordinator(
            mode="deterministic",
            max_running=4,
            pool_capacity=pool_capacity,
        )
        with coordinator:
            handles = [coordinator.submit(spec) for spec in specs]
            await coordinator.drain()
            stats = coordinator.pool.stats.to_dict()
        return handles, stats

    handles, stats = asyncio.run(scenario())
    for handle in handles:
        assert handle.state is JobState.DONE, (
            f"{handle.job_id}: {handle.state.value} {handle.error}"
        )
    return [handle.report.to_dict() for handle in handles], stats


def pool_throughput(specs):
    """Shared pool vs per-job-engine baseline on the same grid.

    ``pool_capacity=0`` forces every quantum through a full
    snapshot → discard → rebuild → restore cycle: exactly the cost a
    coordinator that kept no engines alive between quanta would pay.
    The shared pool keeps running jobs resident and must win by
    ``MIN_SPEEDUP`` while producing bit-identical reports.
    """
    start = time.perf_counter()
    shared_reports, shared_stats = _drain_grid(specs, pool_capacity=None)
    shared_seconds = time.perf_counter() - start

    start = time.perf_counter()
    baseline_reports, baseline_stats = _drain_grid(specs, pool_capacity=0)
    baseline_seconds = time.perf_counter() - start

    assert shared_reports == baseline_reports, (
        "pooled run diverged from the per-job-engine baseline"
    )
    assert shared_stats["hits"] > 0, shared_stats
    assert baseline_stats["restores"] > 0, baseline_stats
    assert baseline_stats["evictions"] > baseline_stats["restores"] - 1, (
        baseline_stats
    )
    speedup = baseline_seconds / shared_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"shared pool only {speedup:.2f}x faster than per-job engines "
        f"(gate: {MIN_SPEEDUP}x); shared={shared_seconds:.3f}s "
        f"baseline={baseline_seconds:.3f}s"
    )
    return {
        "min_speedup": MIN_SPEEDUP,
        "speedup": round(speedup, 2),
        "shared": {
            "seconds": round(shared_seconds, 3),
            "jobs_per_second": round(NUM_JOBS / shared_seconds, 2),
            "pool": shared_stats,
        },
        "per_job_engine": {
            "seconds": round(baseline_seconds, 3),
            "jobs_per_second": round(NUM_JOBS / baseline_seconds, 2),
            "pool": baseline_stats,
        },
    }


class MeteredMailbox(ServeMailbox):
    """Sizes the checkpoint head every round boundary leaves behind."""

    def __init__(self, root):
        super().__init__(root)
        self.head_writes = 0
        self.head_bytes = 0

    def write_checkpoint(self, job, state):
        super().write_checkpoint(job, state)
        if state is not None:
            head = self.root / "checkpoints" / f"{job.job_id}.json"
            self.head_writes += 1
            self.head_bytes += head.stat().st_size


def kill_resume(specs, snapshots, workdir):
    """SIGKILL a serving coordinator mid-grid; a successor must finish
    the survivors bit-identically to the never-interrupted run.

    Returns the successor's checkpoint-head statistics.
    """
    root = workdir / "kill-mbox"
    trace_dir = workdir / "kill-traces"
    client = CoordinatorClient(root)
    job_ids = [
        client.submit(spec, job_id=f"kill-{i:02d}", trace=True)
        for i, spec in enumerate(specs)
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(root),
            "--mode", "deterministic", "--trace-dir", str(trace_dir),
            "--pool-capacity", "2", "--poll-interval", "0.02",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed_mid_run = False
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            states = [client.state(job_id) for job_id in job_ids]
            if any(s.get("rounds_done", 0) >= 2 for s in states):
                killed_mid_run = True
                break
            time.sleep(0.02)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    assert killed_mid_run, "coordinator made no progress before kill"
    assert (root / "coordinator.json").exists(), (
        "killed coordinator should leave its serving marker behind"
    )

    # Successor: takes over the stale marker, restores checkpointed
    # jobs, finishes the grid.
    coordinator = Coordinator(
        mode="deterministic",
        max_running=4,
        pool_capacity=2,
        trace_dir=trace_dir,
    )
    mailbox = MeteredMailbox(root)
    with coordinator:
        asyncio.run(coordinator.serve(mailbox, once=True))

    for job_id, snapshot in zip(job_ids, snapshots):
        resumed = client.state(job_id)
        assert resumed["state"] == "done", (
            f"{job_id}: {resumed['state']} {resumed.get('error')}"
        )
        report = dict(resumed["report"])
        baseline = dict(snapshot["report"])
        resumed_trace = pathlib.Path(report.pop("trace_path"))
        baseline_trace = pathlib.Path(baseline.pop("trace_path"))
        assert report == baseline, (
            f"{job_id} diverged after kill/resume:\n"
            f"  resumed : {report}\n  baseline: {baseline}"
        )
        assert resumed_trace.read_bytes() == baseline_trace.read_bytes(), (
            f"{job_id} trace diverged after kill/resume"
        )
    leftovers = sorted(p.name for p in (root / "checkpoints").iterdir())
    assert not leftovers, (
        f"finished jobs left checkpoint files behind: {leftovers}"
    )
    assert mailbox.head_writes > 0, "successor checkpointed no round"
    return {
        "checkpoint_head_writes": mailbox.head_writes,
        "checkpoint_head_bytes_per_round": round(
            mailbox.head_bytes / mailbox.head_writes, 1
        ),
    }


def live_failure_isolation(specs, snapshots):
    """Live mode with one broken job: peers match the served reports."""

    async def scenario():
        coordinator = Coordinator(mode="live", max_running=4)
        with coordinator:
            handles = [coordinator.submit(spec) for spec in specs]
            doomed = coordinator.submit(bad_spec())
            await coordinator.drain()
            return handles, doomed

    handles, doomed = asyncio.run(scenario())
    assert doomed.state is JobState.FAILED, doomed.state
    assert "does-not-exist" in doomed.error
    for handle, snapshot in zip(handles, snapshots):
        assert handle.state is JobState.DONE, (
            f"{handle.job_id} was affected by the injected failure: "
            f"{handle.state.value} {handle.error}"
        )
        live = handle.report.to_dict()
        served = dict(snapshot["report"])
        live.pop("trace_path", None)
        served.pop("trace_path", None)
        assert live == served, (
            f"{handle.job_id} live-mode result diverged"
        )


def main() -> int:
    specs = make_specs()
    report = {
        "benchmark": "serve",
        "python": platform.python_version(),
        "num_jobs": NUM_JOBS,
        "schemes": sorted({spec.scheme for spec in specs}),
    }
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)

        start = time.perf_counter()
        snapshots = mailbox_smoke(specs, workdir)
        report["mailbox_seconds"] = round(time.perf_counter() - start, 3)
        print(f"mailbox smoke: {NUM_JOBS} jobs done "
              f"({report['mailbox_seconds']}s)")

        start = time.perf_counter()
        check_determinism(specs, snapshots, workdir)
        report["determinism_seconds"] = round(
            time.perf_counter() - start, 3
        )
        print("determinism: reports and traces match sequential runs")

        check_trace_reaggregation(snapshots)
        print("traces: re-read + re-aggregate losslessly")

        report["pool"] = pool_throughput(specs)
        print("pool: shared engines "
              f"{report['pool']['speedup']}x faster than per-job "
              f"engines (gate: {MIN_SPEEDUP}x)")

        start = time.perf_counter()
        report["kill_resume"] = kill_resume(specs, snapshots, workdir)
        report["kill_resume_seconds"] = round(
            time.perf_counter() - start, 3
        )
        print("kill/resume: successor coordinator finished the grid "
              f"bit-identically ({report['kill_resume_seconds']}s, "
              f"{report['kill_resume']['checkpoint_head_bytes_per_round']}"
              " head bytes per round)")

        start = time.perf_counter()
        live_failure_isolation(specs, snapshots)
        report["live_seconds"] = round(time.perf_counter() - start, 3)
        print("live mode: injected failure isolated, peers unaffected "
              f"({report['live_seconds']}s)")

    out = pathlib.Path("BENCH_serve.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

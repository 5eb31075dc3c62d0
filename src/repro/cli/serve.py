"""``repro serve`` / ``submit`` / ``jobs`` / ``cancel`` — the multi-job
coordinator's command-line surface.

All four commands meet over a *mailbox directory* (see
:mod:`repro.serve.mailbox`): ``repro serve MAILBOX`` runs a
:class:`~repro.serve.Coordinator` against it; ``repro submit`` drops
spec files into its inbox; ``repro jobs`` lists the published state
snapshots; ``repro cancel`` requests a cancellation, which a serving
coordinator applies at the job's next round boundary.
The commands work in either order — submissions made before the
coordinator starts are picked up when it does.

``repro submit --sweep FIELD=V1,V2`` fans a spec's parameter grid into
one job per grid point — the *same* grid ``repro run --sweep`` builds
(shared clause parser, same ``dataclasses.replace`` cells), so the
fan-out produces bit-identical reports to the serial sweep.  ``repro
jobs --watch`` is a polling dashboard over the published snapshots and
streamed round traces; the wall clock here only paces the *display*
(CLI layer — results never depend on it).
"""

from __future__ import annotations

import argparse
import asyncio
import json

from ..analysis.reporting import Table
from .params import _parse_sweep_axes
from .registry import register_command

#: job states with no further transitions (mirrors the serve layer's
#: terminal set plus the mailbox-only ``rejected``).
_TERMINAL_STATES = frozenset(("done", "failed", "cancelled", "rejected"))


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a mailbox directory until drained (--once) or forever."""
    from ..serve import Coordinator, ServeMailbox

    coordinator = Coordinator(
        max_running=args.max_running,
        queue_limit=args.queue_limit,
        trace_dir=args.trace_dir,
        pool_capacity=args.pool_capacity,
    )
    mailbox = ServeMailbox(args.mailbox)
    print(
        f"serving {args.mailbox} — "
        f"max_running={args.max_running}, queue_limit={args.queue_limit}"
    )
    with coordinator:
        try:
            asyncio.run(coordinator.serve(
                mailbox,
                poll_interval=args.poll_interval,
                idle_exit=args.idle_exit,
                once=args.once,
            ))
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
    snapshots = coordinator.jobs()
    done = sum(1 for s in snapshots if s["state"] == "done")
    failed = sum(1 for s in snapshots if s["state"] == "failed")
    cancelled = sum(1 for s in snapshots if s["state"] == "cancelled")
    print(
        f"served {len(snapshots)} jobs: {done} done, {failed} failed, "
        f"{cancelled} cancelled"
    )
    return 0 if failed == 0 else 1


def _print_rejection(exc) -> None:
    """Render a structured rejection (reason / depth / retry hint)."""
    print(f"rejected: {exc}")
    record = getattr(exc, "record", None) or {}
    details = record.get("details", record)
    if isinstance(details, dict):
        depth = details.get("queue_depth")
        limit = details.get("queue_limit")
        if depth is not None and limit is not None:
            print(f"  queue depth {depth} / limit {limit}")
    hint = getattr(exc, "retry_hint", "")
    if hint:
        print(f"  retry: {hint}")


def _wait_and_print(client, job_id: str, timeout: float) -> int:
    """Wait one job to a terminal state; print its result lines."""
    snapshot = client.wait(job_id, timeout=timeout)
    print(f"{job_id}: {snapshot['state']}")
    if snapshot.get("error"):
        print(f"  {snapshot['error']}")
    report = snapshot.get("report")
    if isinstance(report, dict):
        print(
            f"  {report.get('num_steps', 0)} steps, "
            f"{report.get('total_sim_time', 0.0):.2f}s simulated, "
            f"final loss {report.get('final_loss', float('nan')):.4f}"
        )
    return 0 if snapshot["state"] == "done" else 1


def _submit_sweep(client, args: argparse.Namespace) -> int:
    """Fan a spec's parameter grid into one mailbox job per point.

    The grid is built exactly as ``repro run --sweep`` builds it —
    same clause parser, same :meth:`Sweep.combinations` row-major
    order, same ``dataclasses.replace(base, **params)`` cells with the
    base spec's own seed — so a drained mailbox holds reports
    bit-identical to the serial sweep's summaries.  ``--jobs N``
    additionally fans each cell into N seed-replicates whose seeds are
    spawned in the parent (:func:`~repro.parallel.spawn_point_seeds`),
    the same discipline the process-pool sweep executor uses.
    """
    import dataclasses

    from ..engine.spec import ExperimentSpec
    from ..exceptions import SubmissionRejectedError
    from ..experiments.sweep import Sweep
    from ..parallel import spawn_point_seeds

    spec = ExperimentSpec.from_file(args.spec)
    axes = _parse_sweep_axes(args.sweep)
    # over_spec validates the axes against spec fields; the grid walk
    # below matches Sweep.run's combos exactly (row-major order).
    sweep = Sweep.over_spec(f"{spec.name} sweep", spec, axes)
    combos = list(sweep.combinations())
    replicas = max(1, args.jobs or 1)
    seeds = (
        spawn_point_seeds(spec.seed, len(combos) * replicas)
        if replicas > 1 else None
    )
    job_ids = []
    for i, params in enumerate(combos):
        cell = dataclasses.replace(spec, **params)
        label = ",".join(f"{k}={params[k]}" for k in axes)
        for r in range(replicas):
            variant, name = cell, f"{spec.name}[{label}]"
            if seeds is not None:
                child = seeds[i * replicas + r]
                variant = dataclasses.replace(
                    cell, seed=int(child.generate_state(1)[0])
                )
                name = f"{name}#r{r}"
            try:
                job_id = client.submit(
                    variant,
                    name=name,
                    weight=args.weight,
                    trace=True if args.trace else None,
                    priority=args.priority,
                    deadline=args.deadline,
                )
            except SubmissionRejectedError as exc:
                _print_rejection(exc)
                return 1
            print(f"submitted {job_id}")
            job_ids.append(job_id)
    print(
        f"submitted {len(job_ids)} jobs over {len(combos)} grid points"
    )
    if args.wait:
        failures = 0
        for job_id in job_ids:
            try:
                failures += _wait_and_print(client, job_id, args.timeout)
            except SubmissionRejectedError as exc:
                _print_rejection(exc)
                failures += 1
        return 0 if failures == 0 else 1
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a spec file to a serve mailbox; optionally wait for it.

    With ``--sweep FIELD=V1,V2`` (repeatable) the spec becomes the base
    of a grid and every grid point is submitted as its own job.
    """
    from ..exceptions import SubmissionRejectedError
    from ..serve import CoordinatorClient

    client = CoordinatorClient(args.mailbox)
    if args.sweep:
        return _submit_sweep(client, args)
    try:
        job_id = client.submit(
            args.spec,
            name=args.name,
            weight=args.weight,
            trace=True if args.trace else None,
            job_id=args.job_id,
            priority=args.priority,
            deadline=args.deadline,
        )
    except SubmissionRejectedError as exc:
        _print_rejection(exc)
        return 1
    print(f"submitted {job_id}")
    if args.wait:
        try:
            return _wait_and_print(client, job_id, args.timeout)
        except SubmissionRejectedError as exc:
            _print_rejection(exc)
            return 1
    return 0


def _render_jobs(client, args: argparse.Namespace):
    """One dashboard frame: status line, job table, trace aggregates.

    Returns ``(snapshots, serving)`` so the watch loop can decide
    whether anything is still in flight.
    """
    snapshots = client.jobs()
    serving = client.serving()
    status = (
        f"coordinator: pid {serving['pid']}"
        if serving else "coordinator: not running"
    )
    print(status)
    table = Table(
        title=f"Jobs — {args.mailbox}",
        columns=["job", "name", "state", "rounds", "detail"],
    )
    for snap in snapshots:
        detail = snap.get("error", "")
        report = snap.get("report")
        if isinstance(report, dict):
            detail = f"final loss {report.get('final_loss'):.4f}"
        table.add_row(
            snap.get("id", "?"),
            snap.get("name", "-"),
            snap.get("state", "?"),
            snap.get("rounds_done", "-"),
            detail,
        )
    table.show()
    if getattr(args, "watch", False):
        _render_trace_aggregates(snapshots)
    return snapshots, serving


def _render_trace_aggregates(snapshots) -> None:
    """Aggregate every job's streamed round trace into a live table.

    Traces are keyed by the job name (the runner's trace context), so
    re-aggregating them groups rounds per job — p50/p95 step times and
    wasted compute update as the coordinator streams more rounds.
    """
    import pathlib

    from ..obs import aggregate_traces, read_traces

    traces = []
    for snap in snapshots:
        path = snap.get("trace_path")
        if not path or not pathlib.Path(path).exists():
            continue
        try:
            traces.extend(read_traces(path))
        except Exception:
            # A half-written final line loses one frame of dashboard
            # detail, never the run — the next poll rereads the file.
            continue
    if not traces:
        return
    table = Table(
        title="Round traces",
        columns=["job", "rounds", "mean step (s)", "p95 (s)",
                 "wasted compute"],
    )
    for label, agg in aggregate_traces(traces).items():
        table.add_row(
            label,
            agg.rounds,
            round(agg.mean_step_time, 4),
            round(agg.p95_step_time, 4),
            agg.total_wasted_compute,
        )
    table.show()


def _watch_jobs(client, args: argparse.Namespace) -> int:
    """Re-render the dashboard until every known job is terminal.

    The poll interval is wall clock, which is fine at the CLI layer:
    it paces the display only, and every number shown comes from the
    coordinator's published snapshots and traces.
    """
    import time

    while True:
        snapshots, serving = _render_jobs(client, args)
        pending = [
            s for s in snapshots
            if s.get("state") not in _TERMINAL_STATES
        ]
        if not pending and snapshots:
            failed = sum(
                1 for s in snapshots
                if s.get("state") in ("failed", "rejected")
            )
            print(f"all {len(snapshots)} jobs terminal ({failed} failed)")
            return 0 if failed == 0 else 1
        if serving is None and not pending:
            print("no jobs and no coordinator; exiting watch")
            return 0
        time.sleep(args.interval)
        print()


def cmd_jobs(args: argparse.Namespace) -> int:
    """List every job the mailbox's coordinator knows about."""
    from ..serve import CoordinatorClient

    client = CoordinatorClient(args.mailbox)
    if args.watch:
        return _watch_jobs(client, args)
    if args.json:
        print(json.dumps(client.jobs(), indent=2, sort_keys=True))
        return 0
    _render_jobs(client, args)
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    """Request cancellation of a submitted job (applied at its next
    round boundary)."""
    from ..serve import CoordinatorClient

    client = CoordinatorClient(args.mailbox)
    client.cancel(args.job_id)
    print(f"cancel requested for {args.job_id}")
    return 0


def _add_mailbox_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "mailbox",
        help="mailbox directory shared with `repro serve` "
             "(created if missing)",
    )


@register_command("serve", help="run the multi-job coordinator on a mailbox")
def configure_serve(parser: argparse.ArgumentParser) -> None:
    """Wire the ``serve`` subparser (arguments + handler)."""
    _add_mailbox_arg(parser)
    parser.add_argument("--max-running", type=int, default=4,
                        help="jobs running concurrently (default 4)")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admission bound on active jobs (default 64)")
    parser.add_argument("--trace-dir", default=None,
                        help="stream each job's JSONL round trace into "
                             "this directory")
    parser.add_argument("--once", action="store_true",
                        help="drain the current inbox and all admitted "
                             "jobs, then exit")
    parser.add_argument("--idle-exit", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long with nothing to do")
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        help="inbox poll period in seconds (default 0.05)")
    parser.add_argument("--pool-capacity", type=int, default=None,
                        metavar="N",
                        help="live engines kept resident in the shared "
                             "worker pool; excess jobs are parked as "
                             "checkpoints and resumed on demand "
                             "(default: --max-running)")
    parser.set_defaults(func=cmd_serve)


@register_command("submit", help="submit a spec to a serve mailbox")
def configure_submit(parser: argparse.ArgumentParser) -> None:
    """Wire the ``submit`` subparser (arguments + handler)."""
    _add_mailbox_arg(parser)
    parser.add_argument("spec", help="path to an ExperimentSpec file "
                                     "(.json/.toml)")
    parser.add_argument("--name", default=None,
                        help="job display name (default: spec name)")
    parser.add_argument("--weight", type=int, default=1,
                        help="scheduling weight (default 1)")
    parser.add_argument("--job-id", default=None,
                        help="explicit job id (default: generated)")
    parser.add_argument("--trace", action="store_true",
                        help="request round-trace streaming (needs the "
                             "coordinator's --trace-dir)")
    parser.add_argument("--priority", type=int, default=0,
                        help="scheduling-class priority; higher runs "
                             "first (default 0)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SIM_SECONDS",
                        help="soft deadline for earliest-deadline-first "
                             "tie-breaking within a priority tier")
    parser.add_argument("--sweep", action="append", default=None,
                        metavar="FIELD=V1,V2",
                        help="fan a grid over spec fields into one job "
                             "per point (repeatable; same grammar and "
                             "grid as `repro run --sweep`)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="with --sweep: seed-replicates per grid "
                             "point (default 1 — the exact "
                             "`repro run --sweep` grid)")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal "
                             "state and print its result")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="--wait timeout in seconds (default 60)")
    parser.set_defaults(func=cmd_submit)


@register_command("jobs", help="list jobs on a serve mailbox")
def configure_jobs(parser: argparse.ArgumentParser) -> None:
    """Wire the ``jobs`` subparser (arguments + handler)."""
    _add_mailbox_arg(parser)
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON snapshots")
    parser.add_argument("--watch", action="store_true",
                        help="poll and re-render until every job is "
                             "terminal; adds a live trace-aggregate "
                             "table for traced jobs")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="--watch refresh period (default 1.0)")
    parser.set_defaults(func=cmd_jobs)


@register_command("cancel", help="cancel a job on a serve mailbox")
def configure_cancel(parser: argparse.ArgumentParser) -> None:
    """Wire the ``cancel`` subparser (arguments + handler)."""
    _add_mailbox_arg(parser)
    parser.add_argument("job_id", help="job id from `repro submit`/`jobs`")
    parser.set_defaults(func=cmd_cancel)

#!/usr/bin/env python3
"""Serve quickstart: many experiments through one coordinator.

Three ways to drive :mod:`repro.serve`:

1. ``run_jobs`` — the one-call batch API: submit a list of specs, get
   their :class:`~repro.RunReport` results in submission order;
2. a :class:`~repro.Coordinator` driven directly — per-job handles,
   weights, live ``watch()`` event streams and cancellation;
3. the file mailbox — the protocol behind ``repro serve`` /
   ``repro submit``, here exercised in-process.

The coordinator runs one round at a time on its event loop, so the
interleaved results are bit-for-bit what sequential ``repro run``
invocations would produce.

Run:  python examples/serve_quickstart.py
"""

import asyncio
import tempfile

from repro import (
    Coordinator,
    CoordinatorClient,
    ExperimentSpec,
    RunReport,
    ServeMailbox,
    run_jobs,
)


def make_specs():
    """Four small jobs across three placement schemes."""
    return [
        ExperimentSpec(
            name=f"serve-demo-{scheme}",
            scheme=scheme,
            num_workers=4,
            partitions_per_worker=2,
            wait_for=3,
            max_steps=20,
            seed=7,
        )
        for scheme in ("is-gc-cr", "is-gc-fr", "gc", "sync-sgd")
    ]


def main() -> None:
    specs = make_specs()

    # ------------------------------------------------------------------
    # 1. The batch API: run all four concurrently, fairly interleaved.
    # ------------------------------------------------------------------
    print("run_jobs: four schemes, one coordinator")
    for report in run_jobs(specs, max_running=4):
        print(
            f"  {report.scheme:<9} {report.num_steps:>3} steps  "
            f"loss {report.final_loss:.4f}  "
            f"sim time {report.total_sim_time:.1f}s"
        )
    print()

    # ------------------------------------------------------------------
    # 2. A coordinator driven directly: weighted jobs, a live watch
    #    stream, and one cancellation mid-run.
    # ------------------------------------------------------------------
    async def drive() -> None:
        coord = Coordinator(max_running=2)
        with coord:
            fast = coord.submit(specs[0], weight=3)
            slow = coord.submit(specs[1], weight=1)
            doomed = coord.submit(specs[2])
            doomed.cancel()  # cancelled before ever running
            drain = asyncio.ensure_future(coord.drain())
            rounds = 0
            async for event in fast.watch():
                if event.kind == "round":
                    rounds += 1
            await drain
            print(f"watched {rounds} rounds of {fast.name}")
            for handle in (fast, slow, doomed):
                print(f"  {handle.job_id}: {handle.state.value}")

    print("coordinator: weights, watch, cancellation")
    asyncio.run(drive())
    print()

    # ------------------------------------------------------------------
    # 3. The file mailbox — what `repro submit` + `repro serve` speak.
    # ------------------------------------------------------------------
    print("mailbox: submit -> serve --once -> read the report back")
    with tempfile.TemporaryDirectory() as root:
        client = CoordinatorClient(root)
        job_id = client.submit(specs[0], job_id="demo-job")
        coord = Coordinator()
        with coord:
            asyncio.run(coord.serve(ServeMailbox(root), once=True))
        snapshot = client.state(job_id)
        report = RunReport.from_dict(snapshot["report"])
        print(f"  {job_id}: {snapshot['state']}, "
              f"final loss {report.final_loss:.4f}")


if __name__ == "__main__":
    main()

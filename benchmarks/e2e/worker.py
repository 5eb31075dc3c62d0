"""One workload in one process: the child ``run.py`` spawns.

``--phase setup`` imports ``repro``, builds the workload's inputs and
exits; the parent times the whole process, which is what a CLI user
pays before any work starts.  ``--phase run`` does the measuring:
one warm-up repeat, the timed repeats (each bracketed by a speed probe,
see ``harness.slowdown``), the correctness check and — with
``--traced 1`` — one more repeat with the span wrappers on.  The result
is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

def fresh_inputs(workload, seed: int, workdir: pathlib.Path):
    """Build inputs from a newly spawned seed tree (``spawn`` advances
    its parent, so every build starts from the integer again)."""
    from harness import spawn_seeds

    workdir.mkdir(parents=True, exist_ok=True)
    return workload.build(spawn_seeds(seed, workload.seed_names), workdir)


def time_import() -> float:
    """Wall time of ``import repro`` in a fresh interpreter."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import repro"],
        check=True,
    )
    return time.perf_counter() - started


def traced_pass(workload, seed, workdir, untraced_wall, trace_out):
    """One set-up + repeat under the span wrappers.

    ``untraced_wall`` is the median untraced repeat in reference
    seconds; it is scaled to this pass's own machine state before the
    overhead ratio is taken.
    """
    import layers
    from harness import SpanRecorder, digest, slowdown, speed_probe

    import_seconds = time_import()
    rec = SpanRecorder()
    counts: dict = {}
    layers.install(rec, counts)
    try:
        with rec.span("harness.root") as root:
            with rec.span("harness.setup"):
                inputs = fresh_inputs(workload, seed, workdir)
            before = speed_probe()
            with rec.span("harness.run") as run_span:
                outputs = workload.run(inputs, workdir, rec)
            run_slowdown = slowdown(before, speed_probe())
            if hasattr(workload, "serial"):
                outputs["serial"] = workload.serial(inputs)
    finally:
        rec.unwrap_all()
    metrics, shares = layers.per_layer_metrics(
        rec,
        counts,
        root=root,
        run_span=run_span,
        pool=outputs.get("pool", {}),
        import_seconds=import_seconds,
        untraced_wall=untraced_wall * run_slowdown,
    )
    if trace_out:
        with open(trace_out, "a", encoding="utf-8") as fh:
            for line in rec.to_jsonl(workload=workload.name, repeat="traced"):
                fh.write(line + "\n")
    selfs = rec.self_times()
    root_wall = rec.rows[root][2] - rec.rows[root][1]
    return {
        "digest": digest(workload.digest_payload(inputs, outputs)),
        "outputs": outputs,
        "metrics": metrics,
        "shares": shares,
        "spans": len(rec.rows),
        "self_sum_over_root": sum(selfs) / root_wall,
    }


def run_phase(args, workload, workdir: pathlib.Path) -> dict:
    from harness import MIN_REPEATS, digest, slowdown, speed_probe

    inputs = fresh_inputs(workload, args.seed, workdir / "timed")
    run_dir = workdir / "timed"

    outputs = workload.run(inputs, run_dir)  # warm-up, never timed
    digests = [digest(workload.digest_payload(inputs, outputs))]

    walls, slowdowns, jobs = [], [], []
    window = time.perf_counter()
    while len(walls) < args.repeats and (
        len(walls) < MIN_REPEATS
        or time.perf_counter() - window < args.seconds
    ):
        before = speed_probe()
        started = time.perf_counter()
        outputs = workload.run(inputs, run_dir)
        walls.append(time.perf_counter() - started)
        slowdowns.append(slowdown(before, speed_probe()))
        jobs.append([seconds for _label, seconds in outputs["jobs"]])
        digests.append(digest(workload.digest_payload(inputs, outputs)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = digests[-1]

    traced = None
    if args.traced:
        ordered = sorted(w / s for w, s in zip(walls, slowdowns))
        traced = traced_pass(
            workload, args.seed, workdir / "traced",
            ordered[len(ordered) // 2], args.trace_out,
        )
        digests.append(traced["digest"])
        # The serial reference the traced pass already ran.
        if "serial" in traced["outputs"]:
            outputs["serial"] = traced["outputs"]["serial"]

    # The last timed repeat is checked against its reference; a repeat
    # with the same digest shares its verdict, one with another digest
    # fails outright.
    check_dir = workdir / "check"
    check_dir.mkdir()
    ops, failures = workload.check(inputs, outputs, check_dir)
    if traced and (
        traced["metrics"]["core.decodes"] != workload.decodes(inputs)
    ):
        # decodes_per_s rests on this count being what the wrappers see.
        failures.append(
            f"core.decodes counted {traced['metrics']['core.decodes']}, "
            f"the workload declares {workload.decodes(inputs)}"
        )
    matching = sum(d == checked for d in digests)
    mismatching = len(digests) - matching
    return {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": workload.rounds(inputs),
        "decodes": workload.decodes(inputs),
        "walls": walls,
        "slowdowns": slowdowns,
        "jobs": jobs,
        "job_labels": [label for label, _seconds in outputs["jobs"]],
        "peak_rss_mb": peak_rss_mb,
        "result_digest": digests[0],
        "digests_equal": mismatching == 0,
        "attempted": ops * len(digests),
        "failed": len(failures) * matching + ops * mismatching,
        "failures": failures[:5] + (
            [f"{mismatching} repeat(s) with a different result_digest"]
            if mismatching else []
        ),
        "traced": None if traced is None else {
            key: traced[key]
            for key in (
                "digest", "metrics", "shares", "spans", "self_sum_over_root"
            )
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    base = pathlib.Path(args.workdir)
    base.mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="w-", dir=base))
    try:
        if args.phase == "setup":
            fresh_inputs(workload, args.seed, workdir)
            return 0
        result = run_phase(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

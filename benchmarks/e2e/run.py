#!/usr/bin/env python3
"""The repo's end-to-end benchmark: six workloads, one command.

Suite mode — every workload, every metric by name with its unit::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed S] [--repeats N]
        [--workloads a,b] [--out FILE] [--trace-out FILE]
        [--compare BASELINE]

Single-run mode — one workload, one JSON object on the last line of
standard output (the ``BENCHMARK.json`` contract)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
        --trace 0|1

Both exit non-zero when any output fails its correctness check.  This
process stays light (it never imports ``repro``): each workload runs
in its own ``worker.py`` subprocess so that ``peak_rss_mb`` and
``setup_s`` are attributable, and set-up is timed over several fresh
interpreters.  Timings are reference seconds (wall ÷ measured machine
slowdown, ``harness.slowdown``) with the raw wall value beside them.
See ``README.md`` for what each metric means and why each workload
exists.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from harness import (  # noqa: E402
    DEFAULT_SEED,
    HOLDOUT_SEED,
    MIN_REPEATS,
    machine_fingerprint,
    slowdown,
    speed_probe,
    percentile,
    quartiles,
    supported_tail,
)

#: the workloads and why each exists (``workloads.py`` implements them;
#: ``README.md`` gives the long form).
WORKLOADS = {
    "train_mix": (
        "the `repro run` path (Fig. 12): nine specs at the paper's cluster "
        "size across schemes, backends and rules; training does most of "
        "the work, serve/parallel/obs none"
    ),
    "steptime_env": (
        "Fig. 11: simulation + env (+ obs, decode_batch when traced) do all "
        "the work, training none; the bypass for gradient-path changes and "
        "the home of the slow sample_round families"
    ),
    "decode_mc": (
        "the paper's core: FR/CR/HR decoders used three ways (batch, "
        "looped, cached) so a gain for one that costs another shows; "
        "training and serve do nothing"
    ),
    "serve_mailbox": (
        "the persistent serve path: mailbox I/O, a checkpoint per round and "
        "trace streaming dominate; engine work is the minority"
    ),
    "serve_inproc": (
        "the same serve layer with zero file I/O: scheduler + WorkerPool "
        "park/restore through EngineState; a checkpoint-path gain that "
        "costs the in-memory path shows here"
    ),
    "sweep_grid": (
        "the parallel executor at a grid size where pool start-up no longer "
        "decides the result; the only workload with two generator-side "
        "processes"
    ),
}
WORKLOAD_NAMES = tuple(WORKLOADS)

#: fresh-interpreter set-up samples per run (the median is reported).
SETUP_SAMPLES = 5

#: the end-to-end metrics.  ``bound`` is the worsening (share of the
#: baseline median) a claim may not exceed on any workload it did not
#: target, judged from alternating parent/change pairs (README, "Claiming
#: a gain"); ``bounds`` overrides it per workload.  ``gate`` is the one
#: bound per metric that ``BENCHMARK.json`` can hold: it compares
#: *unpaired* sets of runs, so it has to clear this class of box's
#: run-to-run noise (README, "Noise floor") and is wider.
#: ``fail_ratio`` tolerates no increase at all and is carried by
#: ``attempted``/``failed`` in single-run mode.
END_TO_END: List[Dict[str, Any]] = [
    {"name": "setup_s", "unit": "s", "better": "lower",
     "bound": 0.15, "gate": 0.25},
    {"name": "rounds_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.10, "bounds": {"sweep_grid": 0.15}, "gate": 0.25},
    {"name": "decodes_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.10, "bounds": {"sweep_grid": 0.15}, "gate": 0.25},
    {"name": "job_turnaround_p50_s", "unit": "s", "better": "lower",
     "bound": 0.10, "bounds": {"sweep_grid": 0.15}, "gate": 0.25},
    {"name": "job_turnaround_p90_s", "unit": "s", "better": "lower",
     "bound": 0.10, "bounds": {"sweep_grid": 0.15}, "gate": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
     "bound": 0.10, "gate": 0.10},
]


def bound_for(metric: Dict[str, Any], workload: str) -> float:
    return metric.get("bounds", {}).get(workload, metric["bound"])


def tail_fraction(jobs_per_repeat: int, pooled: int) -> float:
    """The percentile ``job_turnaround_p90_s`` reads: p90 where the
    guaranteed sample count (``MIN_REPEATS`` repeats) supports it, else
    the highest percentile with ten samples beyond it, never below the
    median.  ``pooled`` only matters when fewer than ``MIN_REPEATS``
    repeats were asked for."""
    guaranteed = min(MIN_REPEATS * jobs_per_repeat, pooled)
    return supported_tail(guaranteed, cap=0.90)


# ----------------------------------------------------------------------
# Measuring


def _worker(args: Sequence[str], capture: bool) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True,
        check=False,
    )


def measure(
    workload: str,
    *,
    seed: int,
    repeats: int,
    seconds: float,
    setup_samples: int,
    traced: bool,
    trace_out: Optional[str],
    workdir: pathlib.Path,
) -> Dict[str, Any]:
    """Run one workload: set-up samples, then the measuring worker."""
    common = [
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir),
    ]
    setup: List[float] = []
    setup_slowdowns: List[float] = []
    for _ in range(setup_samples):
        before = speed_probe()
        started = time.perf_counter()
        done = _worker([*common, "--phase", "setup"], capture=False)
        setup.append(time.perf_counter() - started)
        setup_slowdowns.append(slowdown(before, speed_probe()))
        if done.returncode != 0:
            raise RuntimeError(f"{workload}: set-up exited {done.returncode}")
    args = [
        *common, "--phase", "run", "--repeats", str(repeats),
        "--seconds", str(seconds), "--traced", "1" if traced else "0",
    ]
    if trace_out:
        args += ["--trace-out", trace_out]
    done = _worker(args, capture=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload}: worker exited {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["setup_samples"] = setup
    record["setup_slowdowns"] = setup_slowdowns
    return record


def end_to_end(record: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics of one run, each with median, quartiles
    and sample count (``value`` is what is reported and compared).

    Timings are in reference seconds (``harness.slowdown``); ``raw`` is
    the same statistic over the plain wall-clock samples.
    """
    factors = record["slowdowns"]
    walls = [w / f for w, f in zip(record["walls"], factors)]
    jobs = [
        [s / f for s in repeat] for repeat, f in zip(record["jobs"], factors)
    ]
    pooled = [s for repeat in jobs for s in repeat]
    tail = tail_fraction(len(jobs[0]), len(pooled))
    out: Dict[str, Dict[str, float]] = {}

    def put(name: str, value: float, samples: Sequence[float], **extra):
        out[name] = {"value": value, **quartiles(samples), **extra}

    if record["setup_samples"]:
        setup = [
            s / f for s, f in
            zip(record["setup_samples"], record["setup_slowdowns"])
        ]
        put("setup_s", statistics.median(setup), setup,
            raw=statistics.median(record["setup_samples"]))
    wall = statistics.median(walls)
    raw_wall = statistics.median(record["walls"])
    put("rounds_per_s", record["rounds"] / wall,
        [record["rounds"] / w for w in walls],
        raw=record["rounds"] / raw_wall)
    put("decodes_per_s", record["decodes"] / wall,
        [record["decodes"] / w for w in walls],
        raw=record["decodes"] / raw_wall)
    put("job_turnaround_p50_s", percentile(pooled, 0.5),
        [percentile(repeat, 0.5) for repeat in jobs],
        jobs=len(pooled),
        raw=percentile([s for r in record["jobs"] for s in r], 0.5))
    put("job_turnaround_p90_s", percentile(pooled, tail),
        # Per-repeat tails feed the quartiles only; one repeat may hold
        # too few jobs for the rule to vouch for them.
        [percentile(repeat, tail, check_tail=False) for repeat in jobs],
        jobs=len(pooled), percentile=100 * tail,
        raw=percentile([s for r in record["jobs"] for s in r], tail))
    put("peak_rss_mb", record["peak_rss_mb"], [record["peak_rss_mb"]])
    return out


# ----------------------------------------------------------------------
# Reporting


def print_workload(record, metrics) -> None:
    name = record["workload"]
    print(f"\n== {name} ==")
    print(f"   {WORKLOADS[name]}")
    print(f"   end-to-end, untraced, {len(record['walls'])} timed repeats "
          f"(+1 warm-up), seed {record['seed']}; seconds are reference "
          f"seconds (machine slowdown "
          f"{statistics.median(record['slowdowns']):.2f}), raw wall beside")
    by_name = {m["name"]: m for m in END_TO_END}
    for metric_name, stats in metrics.items():
        meta = by_name[metric_name]
        note = f"  raw {stats['raw']:.6g}" if "raw" in stats else ""
        if metric_name.startswith("job_turnaround"):
            note += f"  jobs={stats['jobs']}"
            if "percentile" in stats:
                note += f"  (reads p{stats['percentile']:.1f})"
        print(
            f"   {metric_name:<24}{stats['value']:>14.6g} {meta['unit']:<5}"
            f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n={stats['n']}"
            f"  bound {100 * bound_for(meta, name):.0f}%{note}"
        )
    ratio = record["failed"] / record["attempted"]
    print(f"   {'fail_ratio':<24}{ratio:>14.6g} "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    print(f"   {'result_digest':<24}{record['result_digest']}")
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")
    traced = record.get("traced")
    if not traced:
        return
    values, shares = traced["metrics"], traced["shares"]
    print(
        f"   per-layer, one traced repeat ({traced['spans']} spans; self "
        f"times sum to {traced['self_sum_over_root']:.4f} of the root; "
        f"digest {'==' if traced['digest'] == record['result_digest'] else '!='}"
        " untraced)"
    )
    print(f"   {'span':<34}{'calls':>9}{'self_s':>12}{'share':>8}")
    for span, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        calls = values[f"{span}.calls"]
        if calls:
            print(f"   {span:<34}{calls:>9}"
                  f"{values[f'{span}.self_s']:>12.6f}{share:>8.3f}")
    units = {row["name"]: row["unit"] for row in layers.per_layer_catalog()}
    for metric_name, value in values.items():
        if not metric_name.endswith((".calls", ".self_s")) and value:
            print(f"   {metric_name:<40}{value:>16.6g} {units[metric_name]}")


def verdict(
    meta: Dict[str, Any],
    then: Dict[str, float],
    now: Dict[str, float],
    bound: float,
    calibrated: Optional[float] = None,
) -> "tuple[float, str]":
    """``(worsening, verdict)`` of one metric on one workload.

    ``worsening`` is the change in the bad direction as a share of the
    baseline.  Inside the bound the verdict is ``unchanged`` only when
    both sides are tighter than the bound; when either side's quartiles
    (or the recorded calibration spread) span more than it, the data
    cannot tell the two apart and the verdict is ``unresolved``.
    """
    sign = 1.0 if meta["better"] == "lower" else -1.0
    worse = sign * (now["value"] - then["value"]) / then["value"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (then, now)
    )
    if calibrated is not None:
        spread = max(spread, calibrated)
    if worse > bound:
        return worse, "WORSE"
    if worse < -bound:
        return worse, "better"
    return worse, "unresolved" if spread > bound else "unchanged"


def compare(current: Dict[str, Any], baseline: Dict[str, Any]) -> None:
    """Print, per metric × workload, the delta against its bound."""
    if current["fingerprint"]["id"] != baseline["fingerprint"]["id"]:
        print("\nNOTE: baseline was measured on another machine "
              f"({baseline['fingerprint']['id']}); timings are not comparable")
    print(f"\n{'workload':<15}{'metric':<24}{'baseline':>12}{'now':>12}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    for name, now in current["workloads"].items():
        then = baseline["workloads"].get(name)
        if then is None:
            continue
        for meta in END_TO_END:
            a = then["end_to_end"].get(meta["name"])
            b = now["end_to_end"].get(meta["name"])
            if a is None or b is None:
                continue
            bound = bound_for(meta, name)
            worse, word = verdict(
                meta, a, b, bound,
                then.get("calibration_spread", {}).get(meta["name"]),
            )
            print(f"{name:<15}{meta['name']:<24}{a['value']:>12.5g}"
                  f"{b['value']:>12.5g}{100 * worse:>9.1f}%"
                  f"{100 * bound:>6.0f}%  {word}")
        was = then["failed"] / then["attempted"]
        is_now = now["failed"] / now["attempted"]
        print(f"{name:<15}{'fail_ratio':<24}{was:>12.5g}{is_now:>12.5g}"
              f"{'':>10}{'any':>7}  "
              f"{'WORSE' if is_now > was else 'unchanged'}")
        if then["result_digest"] != now["result_digest"] and (
            baseline["seed"] == current["seed"]
        ):
            print(f"{name:<15}result_digest differs from the baseline's")


def benchmark_json() -> Dict[str, Any]:
    """``BENCHMARK.json`` as this code defines it (the self-test keeps
    the committed file equal to this)."""
    end_to_end_rows = [
        {"name": m["name"], "unit": m["unit"], "better": m["better"],
         "bound": m["gate"]}
        for m in END_TO_END
    ]
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": 10,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": end_to_end_rows,
        "per_layer": layers.per_layer_catalog(),
    }


# ----------------------------------------------------------------------
# Entry point


def select_workloads(text: Optional[str]) -> List[str]:
    """``--workloads a,b`` as a list, in the canonical order."""
    if not text:
        return list(WORKLOAD_NAMES)
    asked = {n.strip() for n in text.split(",") if n.strip()}
    unknown = sorted(asked - set(WORKLOAD_NAMES))
    if unknown:
        raise ValueError(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"choose from {', '.join(WORKLOAD_NAMES)}"
        )
    return [name for name in WORKLOAD_NAMES if name in asked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; claims must also "
             f"hold on the hold-out seed {HOLDOUT_SEED})")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per workload (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="cap on the timed window; repeats stop once "
                             f"it is spent (never fewer than {MIN_REPEATS})")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (suite mode)")
    parser.add_argument("--out", default=None, help="write results as JSON")
    parser.add_argument("--trace-out", default=None,
                        help="write every span of the traced passes (JSONL)")
    parser.add_argument("--compare", default=None,
                        help="a baseline written by --out")
    parser.add_argument("--workload", default=None, choices=WORKLOAD_NAMES,
                        help="single-run mode: the one workload to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single-run mode: 0 prints the end-to-end "
                             "metrics, 1 the per-layer metrics")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default .bench_build/e2e "
                             "in the checkout)")
    parser.add_argument("--print-benchmark-json", action="store_true",
                        help="print BENCHMARK.json as this code defines it")
    args = parser.parse_args(argv)

    if args.print_benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    workdir = pathlib.Path(
        args.workdir if args.workdir else ROOT / ".bench_build" / "e2e"
    )
    fingerprint = machine_fingerprint()
    print("machine:", json.dumps(fingerprint, sort_keys=True))

    if args.workload is not None:
        return single_run(args, workdir)

    try:
        names = select_workloads(args.workloads)
    except ValueError as exc:
        parser.error(str(exc))
    if args.trace_out:
        pathlib.Path(args.trace_out).write_text("")
    results: Dict[str, Any] = {
        "fingerprint": fingerprint,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "repeats": args.repeats,
        "workloads": {},
    }
    failed = 0
    for name in names:
        record = measure(
            name, seed=args.seed, repeats=args.repeats,
            seconds=args.seconds if args.seconds is not None else 1e9,
            setup_samples=SETUP_SAMPLES, traced=True,
            trace_out=args.trace_out, workdir=workdir,
        )
        metrics = end_to_end(record)
        print_workload(record, metrics)
        failed += record["failed"]
        results["workloads"][name] = {
            "end_to_end": metrics,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "failures": record["failures"],
            "result_digest": record["result_digest"],
            "per_layer": record["traced"]["metrics"],
            "shares": record["traced"]["shares"],
        }
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
    if args.compare:
        compare(results, json.loads(pathlib.Path(args.compare).read_text()))
    if failed:
        print(f"\n{failed} operation(s) failed their check", file=sys.stderr)
        return 1
    return 0


def single_run(args, workdir: pathlib.Path) -> int:
    """One workload, one JSON line: the ``BENCHMARK.json`` contract."""
    traced = bool(args.trace)
    record = measure(
        args.workload,
        seed=args.seed,
        # The traced run reports no end-to-end number: it needs the
        # untraced wall only as the base of the overhead ratio.
        repeats=MIN_REPEATS if traced else args.repeats,
        seconds=args.seconds if args.seconds is not None else 1e9,
        setup_samples=0 if traced else SETUP_SAMPLES,
        traced=traced,
        trace_out=args.trace_out,
        workdir=workdir,
    )
    values = end_to_end(record)
    print_workload(record, values)
    if traced:
        metrics = {
            row["name"]: {
                "value": record["traced"]["metrics"][row["name"]],
                "unit": row["unit"],
            }
            for row in layers.per_layer_catalog()
        }
    else:
        metrics = {
            m["name"]: {"value": values[m["name"]]["value"], "unit": m["unit"]}
            for m in END_TO_END
        }
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Calibration: is the benchmark steady enough for its own bounds?

Runs every workload ``--runs`` times in single-run mode, each time with
another seed, and reports for each end-to-end metric the distance
between the first and third quartile of its values as a share of their
median — the spread a later comparison has to beat.  Each spread is set
against the metric's gate in ``BENCHMARK.json`` (which it must stay
within) and flagged when it is above a third of it.

With ``--baseline FILE`` the spreads are stored into a file written by
``run.py --out`` (``calibration_spread`` per workload), which is what
``run.py --compare`` reads to tell *unchanged* from *unresolved*.

    python3 benchmarks/e2e/calibrate.py [--runs 10] [--first-seed 101]
        [--workloads a,b] [--baseline benchmarks/e2e/baselines/<id>.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOAD_NAMES, benchmark_json  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    seconds = benchmark_json()["run_seconds"]
    spreads, medians, unsteady = {}, {}, 0
    for workload in args.workloads.split(","):
        started = time.perf_counter()
        runs = [
            one_run(workload, args.first_seed + i, seconds)
            for i in range(args.runs)
        ]
        per_run = (time.perf_counter() - started) / args.runs
        print(f"\n{workload}  ({args.runs} runs, {per_run:.1f} s each)")
        spreads[workload], medians[workload] = {}, {}
        for meta in END_TO_END:
            values = [run[meta["name"]] for run in runs]
            share = spread(values)
            gate = meta["gate"]
            unsteady += share > gate
            spreads[workload][meta["name"]] = share
            medians[workload][meta["name"]] = statistics.median(values)
            note = (
                "ABOVE THE GATE" if share > gate
                else "above a third of the gate" if share > gate / 3
                else "ok"
            )
            print(f"  {meta['name']:<24} median {statistics.median(values):>12.6g}"
                  f"  spread {100 * share:5.2f}%  gate {100 * gate:.0f}%  {note}")
    if args.baseline:
        path = pathlib.Path(args.baseline)
        baseline = json.loads(path.read_text())
        for workload, values in spreads.items():
            entry = baseline["workloads"].get(workload)
            if entry is not None:
                entry["calibration_spread"] = values
                entry["calibration_median"] = medians[workload]
        baseline["calibration"] = {
            "runs": args.runs, "first_seed": args.first_seed,
            "run_seconds": seconds,
        }
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark the parallel sweep executor and the decode cache.

Unlike the ``bench_*.py`` pytest-benchmark suites, this is a
self-contained script — ``make bench`` and the CI smoke step run it
directly and archive its JSON report, so the perf trajectory
accumulates one comparable data point per commit::

    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py --jobs 8

Two sections:

* **sweep** — a fig11-shaped grid executed serially and through
  :class:`~repro.parallel.ProcessExecutor`; results must be bit-for-bit
  identical (the script exits non-zero otherwise), and the report
  records the wall-clock speedup.  On an 8-core runner the full grid
  shows >= 3x; speedup is *reported, not asserted*, because CI and dev
  machines differ in core count.
* **decode-cache** — the same decode stream with and without a
  :class:`~repro.parallel.DecodeCache`, asserting bit-identical
  results and recording the hit rate and time saved.
* **batch-decode** — the same mask stream through ``decode_batch``
  versus the per-mask loop, asserting bit-for-bit identical selections
  *and* generator stream, plus looped/batched equivalence for every
  registered placement family.  The batched-over-looped ratio is
  *reported, not asserted*: it is machine-relative and falls when the
  looped path gets faster; absolute cost per mask of the batch, looped
  and cached paths is tracked by ``decode_mc`` in ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

from repro.core.cyclic import CyclicRepetition
from repro.core.decoders import decoder_for
from repro.experiments.config import Fig11Config
from repro.experiments.fig11 import run_fig11
from repro.parallel import DecodeCache, ProcessExecutor


def _grid_config(smoke: bool) -> Fig11Config:
    if smoke:
        return Fig11Config(
            num_workers=8,
            num_steps=20,
            expected_delays=(1.5, 3.0),
            num_delayed_options=(4, 8),
            wait_values=(2, 6),
        )
    return Fig11Config(num_steps=120)


def bench_sweep(jobs: int, smoke: bool) -> dict:
    cfg = _grid_config(smoke)
    conditions = len(cfg.expected_delays) * len(cfg.num_delayed_options)

    t0 = time.perf_counter()
    serial = run_fig11(cfg)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_fig11(cfg, executor=ProcessExecutor(jobs))
    parallel_s = time.perf_counter() - t0

    identical = serial == parallel
    return {
        "grid": {
            "conditions": conditions,
            "num_workers": cfg.num_workers,
            "num_steps": cfg.num_steps,
        },
        "jobs": jobs,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("nan"),
        "bit_identical": identical,
    }


def bench_decode_cache(smoke: bool) -> dict:
    placement = CyclicRepetition(24, 2)
    rounds = 2_000 if smoke else 20_000
    n = placement.num_workers

    # A sweep replays the same straggler scenarios over and over, so
    # availability masks recur; model that with a bounded mask pool
    # rather than fresh uniform masks (which would never repeat).
    pool_rng = np.random.default_rng(1)
    mask_pool = [
        frozenset(
            int(x) for x in pool_rng.choice(
                n, size=int(pool_rng.integers(6, 18)), replace=False
            )
        )
        for _ in range(64)
    ]

    def decode_stream(cache):
        rng = np.random.default_rng(7)
        mask_rng = np.random.default_rng(2)
        decoder = decoder_for(placement, rng=rng, cache=cache)
        out = []
        t0 = time.perf_counter()
        for _ in range(rounds):
            mask = mask_pool[int(mask_rng.integers(len(mask_pool)))]
            out.append(decoder.decode(mask))
        return out, time.perf_counter() - t0

    uncached, uncached_s = decode_stream(None)
    cache = DecodeCache()
    cached, cached_s = decode_stream(cache)

    return {
        "rounds": rounds,
        "uncached_seconds": uncached_s,
        "cached_seconds": cached_s,
        "speedup": uncached_s / cached_s if cached_s else float("nan"),
        "bit_identical": uncached == cached,
        "cache": cache.snapshot(),
    }


def _family_placements() -> "list[tuple[str, object]]":
    """One representative placement per registered family."""
    from repro.core.scheme import make_placement

    return [
        ("fr", make_placement("fr", num_workers=12, partitions_per_worker=3)),
        ("cr", make_placement("cr", num_workers=12, partitions_per_worker=3)),
        (
            "hr",
            make_placement(
                "hr", num_workers=12, c1=1, c2=2, num_groups=3
            ),
        ),
        (
            "explicit",
            make_placement(
                "explicit",
                rows=[[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
            ),
        ),
        (
            "hetero",
            make_placement(
                "hetero",
                num_workers=8,
                assignment=[3, 1, 0, 2, 7, 5, 4, 6],
                base="cr",
                partitions_per_worker=2,
            ),
        ),
        (
            "comm-efficient",
            make_placement(
                "comm-efficient",
                num_workers=12,
                partitions_per_worker=3,
                blocks=2,
            ),
        ),
        (
            "multimessage",
            make_placement(
                "multimessage",
                num_workers=12,
                partitions_per_worker=2,
                base="cr",
            ),
        ),
    ]


def _random_masks(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    masks = np.zeros((count, n), dtype=bool)
    lo, hi = max(1, n // 4), max(2, 3 * n // 4)
    for i in range(count):
        size = int(rng.integers(lo, hi + 1))
        masks[i, rng.choice(n, size=size, replace=False)] = True
    return masks


def bench_batch_decode(smoke: bool) -> dict:
    """``decode_batch`` vs the per-mask loop: speed + equivalence."""
    import warnings

    # A larger circle than fig11's n=24: per-mask work is what the
    # vectorization removes, and at n=48/c=3 the looped walks dominate
    # over the irreducible per-mask fairness draws (one ``integers`` +
    # one ``shuffle`` each, identical on both paths by contract).
    placement = CyclicRepetition(48, 3)
    num_masks = 4_000 if smoke else 40_000
    masks = _random_masks(placement.num_workers, num_masks, seed=3)

    # Both sides are timed as the best of two runs (fresh identically
    # seeded generators each run) to damp scheduler hiccups in the
    # reported ratio.
    mask_lists = [np.flatnonzero(row).tolist() for row in masks]
    looped_s = float("inf")
    for _ in range(2):
        looped_rng = np.random.default_rng(11)
        looped_dec = decoder_for(placement, rng=looped_rng)
        t0 = time.perf_counter()
        looped = [looped_dec.decode(m) for m in mask_lists]
        looped_s = min(looped_s, time.perf_counter() - t0)

    batched_s = float("inf")
    for _ in range(2):
        batched_rng = np.random.default_rng(11)
        batched_dec = decoder_for(placement, rng=batched_rng)
        t0 = time.perf_counter()
        batch = batched_dec.decode_batch(masks)
        batched_s = min(batched_s, time.perf_counter() - t0)
    # Materialising per-mask DecodeResult objects is outside the timed
    # window on purpose: batch consumers (recovery stats, variance
    # moments) work on the arrays and never pay this cost.
    bit_identical = (
        batch.results() == looped
        and batched_rng.bit_generator.state
        == looped_rng.bit_generator.state
    )

    # Equivalence for every registered placement family: identical
    # selections and identical generator stream, looped vs batched.
    families = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, family_placement in _family_placements():
            fam_masks = _random_masks(
                family_placement.num_workers, 200, seed=5
            )
            rng_a = np.random.default_rng(23)
            rng_b = np.random.default_rng(23)
            dec_a = decoder_for(family_placement, rng=rng_a)
            dec_b = decoder_for(family_placement, rng=rng_b)
            fam_looped = [
                dec_a.decode(np.flatnonzero(row).tolist())
                for row in fam_masks
            ]
            fam_batch = dec_b.decode_batch(fam_masks)
            families[name] = bool(
                fam_batch.results() == fam_looped
                and rng_a.bit_generator.state == rng_b.bit_generator.state
            )

    speedup = looped_s / batched_s if batched_s else float("nan")
    return {
        "num_masks": num_masks,
        "looped_seconds": looped_s,
        "batched_seconds": batched_s,
        "speedup": speedup,
        "bit_identical": bool(bit_identical),
        "families": families,
        "families_ok": all(families.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid for CI (seconds, not minutes)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: min(8, cpu count))",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path("BENCH_parallel.json"),
        help="JSON report path (default: ./BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else min(8, os.cpu_count() or 1)

    print(f"sweep: fig11-shaped grid, jobs={jobs} "
          f"({'smoke' if args.smoke else 'full'}) ...")
    sweep = bench_sweep(jobs, args.smoke)
    print(f"  serial   {sweep['serial_seconds']:.2f}s")
    print(f"  parallel {sweep['parallel_seconds']:.2f}s "
          f"(speedup {sweep['speedup']:.2f}x, "
          f"bit-identical: {sweep['bit_identical']})")

    print("decode cache: repeated-mask decode stream ...")
    cache = bench_decode_cache(args.smoke)
    print(f"  uncached {cache['uncached_seconds']:.2f}s, "
          f"cached {cache['cached_seconds']:.2f}s "
          f"(speedup {cache['speedup']:.2f}x, "
          f"hit rate {100 * cache['cache']['hit_rate']:.1f}%, "
          f"bit-identical: {cache['bit_identical']})")

    print("batch decode: vectorized decode_batch vs per-mask loop ...")
    batch = bench_batch_decode(args.smoke)
    print(f"  looped   {batch['looped_seconds']:.2f}s, "
          f"batched {batch['batched_seconds']:.2f}s "
          f"(speedup {batch['speedup']:.1f}x, "
          f"bit-identical: {batch['bit_identical']})")
    print("  family equivalence: "
          + ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                      for k, v in batch["families"].items()))

    report = {
        "bench": "parallel",
        "mode": "smoke" if args.smoke else "full",
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "sweep": sweep,
        "decode_cache": cache,
        "batch_decode": batch,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not (sweep["bit_identical"] and cache["bit_identical"]):
        print("FAIL: parallel/cached results diverged from the "
              "serial/uncached reference", file=sys.stderr)
        return 1
    if not (batch["bit_identical"] and batch["families_ok"]):
        print("FAIL: batched decoding diverged from the looped "
              "reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

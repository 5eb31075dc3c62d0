"""Where the spans go: the wrap points, the counts, the per-layer names.

Layers are ``repro``'s packages.  Nothing under ``src/`` knows about
this file: every span is installed from here, around a public function
or method, for the length of one traced pass, and removed again
(``SpanRecorder.unwrap_all``).  The same wrappers are installed for
every workload, so a layer a workload bypasses reads 0 calls rather
than being absent.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable, Dict, Iterator, List, Tuple

from harness import MIN_TAIL_SAMPLES, SpanRecorder, percentile

FAMILIES = ("fr", "cr", "hr")
ENV_FAMILIES = (
    "exponential",
    "shifted-exponential",
    "pareto",
    "bernoulli",
    "persistent",
    "mixture",
)

#: every named span; each yields ``<name>.calls`` and ``<name>.self_s``.
SPANS: Tuple[str, ...] = (
    "cli.import_repro",
    "engine.build_engine",
    "training.compute_partitions",
    "training.encode",
    "training.decode",
    "core.decode",
    *(f"core.decode_batch.{f}" for f in FAMILIES),
    *(f"core.decode_looped.{f}" for f in FAMILIES),
    *(f"core.decode_cached.{f}" for f in FAMILIES),
    "core.make_placement",
    *(f"core.conflict_graph.{f}" for f in FAMILIES),
    *(f"core.conflict_graph_truth.{f}" for f in FAMILIES),
    "engine.execute_round",
    "engine.apply_update",
    "engine.run_step",
    "simulation.run_round",
    "env.sample_round",
    "obs.record_round",
    "obs.record_decode",
    "obs.stream_append",
    "obs.read_traces",
    "serve.submit",
    "serve.poll_submissions",
    "serve.write_state",
    "serve.write_checkpoint",
    "engine.snapshot",
    "engine.restore",
    "serve.pool_acquire",
    "serve.pool_release",
    "serve.scheduler_pick",
    "serve.runner_step",
    "serve.coordinator",
    "parallel.executor_run",
    "parallel.serial_run",
)

#: exact counts taken at the same boundaries: name -> (unit, better).
COUNTS: Dict[str, Tuple[str, str]] = {
    "engine.rounds": ("count", "lower"),
    "core.decodes": ("count", "lower"),
    "core.num_searches": ("count", "lower"),
    "core.recovered_fraction_mean": ("ratio", "higher"),
    "simulation.sim_seconds_total": ("sim_s", "lower"),
    "parallel.decode_cache.hit_ratio": ("ratio", "higher"),
    "serve.checkpoint_writes": ("count", "lower"),
    "serve.checkpoint_bytes": ("bytes", "lower"),
    "serve.checkpoint_bytes_per_round": ("bytes", "lower"),
    "serve.state_writes": ("count", "lower"),
    "serve.pool.builds": ("count", "lower"),
    "serve.pool.restores": ("count", "lower"),
    "serve.pool.evictions": ("count", "lower"),
    "serve.pool.hit_ratio": ("ratio", "higher"),
    "obs.trace_bytes": ("bytes", "lower"),
}

#: timings derived from the spans: name -> (unit, better).
DERIVED: Dict[str, Tuple[str, str]] = {
    "serve.quantum_p50_ms": ("ms", "lower"),
    "serve.quantum_p99_ms": ("ms", "lower"),
    "parallel.speedup_vs_serial": ("ratio", "higher"),
    "parallel.efficiency": ("ratio", "higher"),
    "harness.trace_overhead_ratio": ("ratio", "lower"),
    "harness.unattributed_share": ("ratio", "lower"),
}


def per_layer_catalog() -> List[Dict[str, str]]:
    """Every per-layer metric as ``BENCHMARK.json`` lists it."""
    rows = []
    for span in SPANS:
        rows.append({"name": f"{span}.calls", "unit": "count",
                     "better": "lower"})
        rows.append({"name": f"{span}.self_s", "unit": "s",
                     "better": "lower"})
    for family in ENV_FAMILIES:
        rows.append({"name": f"env.sample_round_us.{family}", "unit": "us",
                     "better": "lower"})
    for table in (COUNTS, DERIVED):
        for name, (unit, better) in table.items():
            rows.append({"name": name, "unit": unit, "better": better})
    return rows


def _bindings(function: Callable) -> Iterator[Any]:
    """Every loaded module that binds ``function`` under its own name
    (``from x import f`` copies the binding, so patching the defining
    module alone is not enough)."""
    attr = function.__name__
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None and namespace.get(attr) is function:
            yield module


def _wrap_function(
    rec: SpanRecorder,
    function: Callable,
    name: "str | Callable[..., str]",
    after=None,
) -> None:
    for module in _bindings(function):
        rec.wrap(module, function.__name__, name, after)


def install(rec: SpanRecorder, counts: Dict[str, Any]) -> None:
    """Install every wrap point; ``counts`` receives the raw tallies."""
    import repro.core.conflict
    import repro.core.scheme
    import repro.engine.spec
    import repro.obs.jsonl
    from repro import (
        CoordinatorClient,
        DecodeCache,
        Decoder,
        ClusterSimulator,
        DelayModel,
        PlacementScheme,
        RoundEngine,
        RoundTracer,
        ServeMailbox,
        TraceStreamWriter,
        WorkerPool,
    )
    from repro.engine.backends import ExecutionBackend
    from repro.engine.rules import UpdateRule
    from repro.parallel.executor import SweepExecutor
    from repro.serve import JobRunner
    from repro.serve.scheduler import FairScheduler
    from repro.training.strategies import TrainingStrategy

    counts.update({
        "rounds": 0, "decodes": 0, "searches": 0, "recovered_fraction": 0.0,
        "sim_seconds": 0.0, "cache_hits": 0, "cache_lookups": 0,
        "checkpoint_writes": 0, "checkpoint_bytes": 0, "state_writes": 0,
        "trace_files": {}, "async_seen": {},
    })

    # -- engine / training ---------------------------------------------
    _wrap_function(rec, repro.engine.spec.build_engine, "engine.build_engine")
    rec.wrap_class_tree(
        UpdateRule, "compute_partitions", "training.compute_partitions"
    )
    rec.wrap_class_tree(TrainingStrategy, "encode", "training.encode")
    rec.wrap_class_tree(TrainingStrategy, "decode", "training.decode")
    rec.wrap_class_tree(
        ExecutionBackend, "execute_round", "engine.execute_round"
    )
    rec.wrap_class_tree(UpdateRule, "apply", "engine.apply_update")
    rec.wrap_class_tree(UpdateRule, "apply_arrival", "engine.apply_update")

    def count_round(_result, *_args, **_kwargs):
        counts["rounds"] += 1

    def count_updates(_result, engine, *_args, **_kwargs):
        done = len(engine.async_records)
        counts["rounds"] += done - counts["async_seen"].get(id(engine), 0)
        counts["async_seen"][id(engine)] = done

    rec.wrap(RoundEngine, "run_step", "engine.run_step", count_round)
    # The async rule has no per-round step; its whole update loop is
    # the engine's share.
    rec.wrap(RoundEngine, "step_updates", "engine.run_step", count_updates)
    rec.wrap(RoundEngine, "snapshot", "engine.snapshot")
    rec.wrap(RoundEngine, "restore", "engine.restore")

    # -- core -----------------------------------------------------------
    def count_decode(result, decoder, *_args, **_kwargs):
        counts["decodes"] += 1
        counts["searches"] += result.num_searches
        counts["recovered_fraction"] += (
            len(result.recovered_partitions)
            / decoder.placement.num_partitions
        )

    def count_batch(result, decoder, *_args, **_kwargs):
        counts["decodes"] += len(result)
        counts["searches"] += int(result.num_searches.sum())
        counts["recovered_fraction"] += float(
            result.num_recovered.sum() / decoder.placement.num_partitions
        )

    rec.wrap_class_tree(Decoder, "decode", "core.decode", count_decode)
    rec.wrap_class_tree(
        Decoder,
        "decode_batch",
        lambda decoder, *_: f"core.decode_batch.{decoder.scheme}",
        count_batch,
    )
    _wrap_function(
        rec, repro.core.scheme.make_placement, "core.make_placement"
    )
    rec.wrap_class_tree(
        PlacementScheme,
        "conflict_graph",
        lambda scheme, *_: f"core.conflict_graph.{scheme.family}",
    )
    _wrap_function(
        rec,
        repro.core.conflict.conflict_graph,
        lambda placement, *_: f"core.conflict_graph_truth.{placement.scheme}",
    )

    def cache_lookups(cache, *_args):
        before = cache.hits, cache.misses

        def done():
            counts["cache_hits"] += cache.hits - before[0]
            counts["cache_lookups"] += (
                cache.hits + cache.misses - before[0] - before[1]
            )

        return done

    rec.observe(DecodeCache, "get_or_compute", cache_lookups)
    rec.observe(DecodeCache, "get_or_compute_batch", cache_lookups)

    # -- simulation / env / obs ----------------------------------------
    def count_sim_seconds(result, *_args, **_kwargs):
        counts["sim_seconds"] += result.step_time

    rec.wrap(
        ClusterSimulator, "run_round", "simulation.run_round",
        count_sim_seconds,
    )
    rec.wrap_class_tree(DelayModel, "sample_round", "env.sample_round")
    rec.wrap(RoundTracer, "record_round", "obs.record_round")
    rec.wrap(RoundTracer, "record_decode", "obs.record_decode")
    rec.wrap(TraceStreamWriter, "append", "obs.stream_append")
    _wrap_function(rec, repro.obs.jsonl.read_traces, "obs.read_traces")

    def trace_file_closed(writer, *_args):
        def done():
            counts["trace_files"][str(writer.path)] = os.path.getsize(
                writer.path
            )

        return done

    def traces_written(path, *_args):
        def done():
            counts["trace_files"][str(path)] = os.path.getsize(path)

        return done

    rec.observe(TraceStreamWriter, "close", trace_file_closed)
    for module in _bindings(repro.obs.jsonl.write_traces):
        rec.observe(module, "write_traces", traces_written)

    # -- serve ----------------------------------------------------------
    def count_checkpoint(_result, mailbox, job, *_args, **_kwargs):
        counts["checkpoint_writes"] += 1
        counts["checkpoint_bytes"] += os.path.getsize(
            mailbox.root / "checkpoints" / f"{job.job_id}.json"
        )

    def count_state(_result, *_args, **_kwargs):
        counts["state_writes"] += 1

    rec.wrap(CoordinatorClient, "submit", "serve.submit")
    rec.wrap_generator(
        ServeMailbox, "poll_submissions", "serve.poll_submissions"
    )
    rec.wrap(ServeMailbox, "write_state", "serve.write_state", count_state)
    rec.wrap(
        ServeMailbox, "write_checkpoint", "serve.write_checkpoint",
        count_checkpoint,
    )
    rec.wrap(WorkerPool, "acquire", "serve.pool_acquire")
    rec.wrap(WorkerPool, "release", "serve.pool_release")
    rec.wrap(FairScheduler, "pick", "serve.scheduler_pick")
    rec.wrap(JobRunner, "step", "serve.runner_step")

    # -- parallel -------------------------------------------------------
    rec.wrap(
        SweepExecutor,
        "run",
        lambda executor, *_: (
            "parallel.serial_run" if executor.name == "serial"
            else "parallel.executor_run"
        ),
    )


def per_layer_metrics(
    rec: SpanRecorder,
    counts: Dict[str, Any],
    *,
    root: int,
    pool: Dict[str, int],
    import_seconds: float,
    untraced_wall: float,
    run_span: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(metrics, shares)`` of one traced pass.

    ``root`` is the index of the pass's root span (set-up + one
    repeat), ``run_span`` the repeat alone — its duration against the
    untraced median is the tracing overhead.  Shares are self time over
    the root's duration.
    """
    rows = rec.rows
    selfs = rec.self_times()
    wall = rows[root][2] - rows[root][1]
    totals = rec.totals()
    # Measured in its own interpreter, so outside the tree and its shares.
    totals["cli.import_repro"] = {"calls": 1, "self_s": import_seconds}
    metrics: Dict[str, float] = {}
    shares: Dict[str, float] = {}
    for span in SPANS:
        total = totals.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = total["calls"]
        metrics[f"{span}.self_s"] = total["self_s"]
        shares[span] = (
            0.0 if span == "cli.import_repro" else total["self_s"] / wall
        )

    # Per-family sampling cost: sample_round spans under each family's
    # own job marker.
    family_of: Dict[int, str] = {}
    per_family = {family: [0, 0.0] for family in ENV_FAMILIES}
    for index, (name, start, end, parent) in enumerate(rows):
        if name.startswith("harness.job.env."):
            family_of[index] = name[len("harness.job.env."):]
        elif parent in family_of:
            family_of[index] = family_of[parent]
        if name == "env.sample_round" and index in family_of:
            slot = per_family[family_of[index]]
            slot[0] += 1
            slot[1] += end - start
    for family, (calls, seconds) in per_family.items():
        metrics[f"env.sample_round_us.{family}"] = (
            1e6 * seconds / calls if calls else 0.0
        )

    rounds = counts["rounds"]
    decodes = counts["decodes"]
    builds, hits = pool.get("builds", 0), pool.get("hits", 0)
    metrics.update({
        "engine.rounds": rounds,
        "core.decodes": decodes,
        "core.num_searches": counts["searches"],
        "core.recovered_fraction_mean": (
            counts["recovered_fraction"] / decodes if decodes else 0.0
        ),
        "simulation.sim_seconds_total": counts["sim_seconds"],
        "parallel.decode_cache.hit_ratio": (
            counts["cache_hits"] / counts["cache_lookups"]
            if counts["cache_lookups"] else 0.0
        ),
        "serve.checkpoint_writes": counts["checkpoint_writes"],
        "serve.checkpoint_bytes": counts["checkpoint_bytes"],
        "serve.checkpoint_bytes_per_round": (
            counts["checkpoint_bytes"] / rounds if rounds else 0.0
        ),
        "serve.state_writes": counts["state_writes"],
        "serve.pool.builds": builds,
        "serve.pool.restores": pool.get("restores", 0),
        "serve.pool.evictions": pool.get("evictions", 0),
        "serve.pool.hit_ratio": (
            hits / (hits + builds) if hits + builds else 0.0
        ),
        "obs.trace_bytes": sum(counts["trace_files"].values()),
    })

    # One quantum = the interval between two scheduler picks.
    picks = rec.starts("serve.scheduler_pick")
    quanta = [1e3 * (b - a) for a, b in zip(picks, picks[1:])]
    metrics["serve.quantum_p50_ms"] = (
        percentile(quanta, 0.5) if quanta else 0.0
    )
    metrics["serve.quantum_p99_ms"] = (
        percentile(quanta, 0.99)
        if len(quanta) * 0.01 >= MIN_TAIL_SAMPLES else 0.0
    )

    parallel = sum(rec.durations("parallel.executor_run"))
    serial = sum(rec.durations("parallel.serial_run"))
    speedup = serial / parallel if parallel and serial else 0.0
    metrics["parallel.speedup_vs_serial"] = speedup
    metrics["parallel.efficiency"] = speedup / 2

    run_wall = rows[run_span][2] - rows[run_span][1]
    metrics["harness.trace_overhead_ratio"] = run_wall / untraced_wall
    metrics["harness.unattributed_share"] = sum(
        self_s for row, self_s in zip(rows, selfs)
        if row[0].startswith("harness.")
    ) / wall
    return metrics, shares

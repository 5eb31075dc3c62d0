"""The six workloads: what they feed ``repro`` and how they check it.

Each workload is closed-loop and runs a *fixed* amount of work per
repeat, generated from the ``--seed`` integer alone (``repro`` never
sees a workload name or the seed itself, only specs and masks).  A
workload has four parts:

``build(seeds, workdir)``
    everything a caller pays before the first unit of work: spec
    parsing, ``build_engine`` / ``make_placement``, mailbox
    directories.  Timed in a fresh interpreter as ``setup_s``.
``run(inputs, workdir, rec)``
    one repeat.  Returns the raw outputs plus ``jobs`` — the wall time
    of every unit of submitted work, observed from here.
``digest_payload(inputs, outputs)``
    what must be bit-identical across repeats and in the traced run.
``check(inputs, outputs, workdir)``
    correctness against an independent reference; returns the number
    of operations attempted and a list of failures.

``rec`` is a :class:`harness.SpanRecorder` on the traced pass and
``None`` otherwise; workloads use it only for what no wrapper can know:
the ``serve.coordinator`` span, the per-job ``harness.job.*`` markers,
and which use a ``Decoder.decode`` call is put to
(``core.decode_looped.*`` / ``core.decode_cached.*``).
"""

from __future__ import annotations

import asyncio
import json
import math
import pathlib
import time
from contextlib import nullcontext
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro import (
    Coordinator,
    CoordinatorClient,
    DecodeCache,
    Environment,
    ExperimentSpec,
    ProcessExecutor,
    RoundTracer,
    SerialExecutor,
    ServeMailbox,
    WaitForK,
    aggregate_traces,
    build_run_report,
    placement_scheme,
    read_traces,
    run_spec,
    scheme_for,
)
from repro.exceptions import ServeError
from repro.experiments.config import Fig11Config
from repro.experiments.fig11 import run_fig11, run_traced_fig11
from repro.experiments.sweep import Sweep

from harness import seed_int

clock = time.perf_counter

#: the paper's cluster (Sec. VIII-B): 24 workers, c = 2, wait for 18,
#: exponential delay with mean 1.5 s.
PAPER_CLUSTER = {
    "num_workers": 24,
    "partitions_per_worker": 2,
    "wait_for": 18,
    "delay": {"kind": "exponential", "mean": 1.5},
}


#: Seed of the classic-GC coding matrix in every ``gc`` spec.  The
#: matrix is a random draw (Tandon et al., Alg. 2) and roughly one seed
#: in 250 gives one so ill-conditioned that ``decode_vector`` rejects a
#: legal straggler pattern (seen at n=12, c=3 — a robustness finding for
#: ROADMAP item 3, recorded in README.md).  A benchmark must not fail on
#: its own inputs, so the code seed is pinned to one whose matrix decodes
#: every (n-c+1)-subset at n=12, c=3 and n=24, c=2 with residual < 1e-13;
#: the straggler pattern still follows ``--seed``.
GC_CODE_SEED = 3


def _span(rec, name: str):
    return rec.span(name) if rec is not None else nullcontext()


def _renamed(rec, name: str, as_name: str):
    return rec.renamed(name, as_name) if rec is not None else nullcontext()


def _parse_specs(payloads: Sequence[Dict[str, Any]]) -> List[ExperimentSpec]:
    """Specs arrive as JSON text, the way ``repro run``/``submit`` get them."""
    return [
        ExperimentSpec.from_dict(json.loads(json.dumps(payload)))
        for payload in payloads
    ]


def _summary_payload(summary) -> Dict[str, Any]:
    payload = {
        "loss_curve": list(summary.loss_curve),
        "total_sim_time": summary.total_sim_time,
        "final_loss": summary.final_loss,
    }
    if hasattr(summary, "time_curve"):
        payload["time_curve"] = list(summary.time_curve)
    else:
        payload["mean_staleness"] = summary.mean_staleness
    return payload


class Workload:
    """What ``worker.py`` needs from a workload."""

    name = ""
    #: seed children this workload draws from (``harness.spawn_seeds``).
    seed_names: Tuple[str, ...] = ()

    def build(self, seeds, workdir: pathlib.Path):
        raise NotImplementedError

    def run(self, inputs, workdir: pathlib.Path, rec=None):
        raise NotImplementedError

    def rounds(self, inputs) -> int:
        """Simulated rounds (async master updates count) per repeat."""
        raise NotImplementedError

    def decodes(self, inputs) -> int:
        """Masks a ``Decoder`` decodes per repeat."""
        raise NotImplementedError

    def digest_payload(self, inputs, outputs) -> Any:
        raise NotImplementedError

    def check(self, inputs, outputs, workdir) -> Tuple[int, List[str]]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# train_mix


class TrainMix(Workload):
    name = "train_mix"
    seed_names = ("specs",)
    ROUNDS = 100
    ASYNC_UPDATES = 1000

    def build(self, seeds, workdir):
        children = seeds["specs"].spawn(9)
        rows = [
            ("is-gc-cr", {}, "flat", "sync"),
            ("is-gc-fr", {}, "flat", "sync"),
            ("is-gc-hr", {"c1": 1, "c2": 1, "num_groups": 8}, "flat", "sync"),
            ("gc", {"seed": GC_CODE_SEED}, "flat", "sync"),
            ("is-sgd", {}, "flat", "sync"),
            ("sync-sgd", {}, "flat", "sync"),
            ("is-gc-cr", {}, "actor", "sync"),
            ("is-gc-cr", {}, "flat", "local-update"),
            ("sync-sgd", {}, "flat", "async"),
        ]
        payloads = []
        for i, (scheme, params, backend, rule) in enumerate(rows):
            payloads.append({
                **PAPER_CLUSTER,
                "name": f"mix-{i}-{scheme}-{backend}-{rule}",
                "scheme": scheme,
                "scheme_params": params,
                "backend": backend,
                "rule": rule,
                "max_steps": (
                    self.ASYNC_UPDATES if rule == "async" else self.ROUNDS
                ),
                "seed": seed_int(children[i]),
            })
        specs = _parse_specs(payloads)
        # What `repro run` pays before its first round.
        for spec in specs:
            repro.build_engine(spec)
        return {"specs": specs}

    def rounds(self, inputs):
        return sum(spec.max_steps for spec in inputs["specs"])

    def decodes(self, inputs):
        return sum(
            spec.max_steps
            for spec in inputs["specs"]
            if spec.scheme.startswith("is-gc")
        )

    def run(self, inputs, workdir, rec=None):
        jobs, results = [], []
        for spec in inputs["specs"]:
            started = clock()
            with _span(rec, f"harness.job.{spec.name}"):
                engine = repro.build_engine(spec)
                if spec.rule == "async":
                    summary = engine.run_updates(spec.max_steps)
                else:
                    summary = engine.run(spec.max_steps)
            jobs.append((spec.name, clock() - started))
            results.append((engine, summary))
        return {"jobs": jobs, "results": results}

    def digest_payload(self, inputs, outputs):
        return [
            {
                **_summary_payload(summary),
                "recovered": [r.num_recovered for r in engine.records],
                "available": [r.num_available for r in engine.records],
            }
            for engine, summary in outputs["results"]
        ]

    def check(self, inputs, outputs, workdir):
        failures: List[str] = []
        for spec, (engine, summary) in zip(
            inputs["specs"], outputs["results"]
        ):
            budget = spec.max_steps
            done = (
                summary.num_updates if spec.rule == "async"
                else summary.num_steps
            )
            if done != budget:
                failures.extend(
                    f"{spec.name}: stopped at {done} of {budget}"
                    for _ in range(budget - done)
                )
            for i, loss in enumerate(summary.loss_curve):
                if not math.isfinite(loss):
                    failures.append(f"{spec.name}: loss[{i}] = {loss}")
            scheme = scheme_for(engine.strategy.placement)
            for record in engine.records:
                lo, hi = scheme.recovery_bounds(record.num_available)
                if not lo <= record.num_recovered <= hi:
                    failures.append(
                        f"{spec.name}: step {record.step} recovered "
                        f"{record.num_recovered} outside [{lo}, {hi}] "
                        f"at w={record.num_available}"
                    )
        return self.rounds(inputs), failures


# ----------------------------------------------------------------------
# steptime_env


class StepTimeEnv(Workload):
    name = "steptime_env"
    seed_names = ("fig11", "env_params", "env_rng")
    NUM_STEPS = 400
    ENV_ROUNDS = 700
    FAMILIES = (
        "exponential",
        "shifted-exponential",
        "pareto",
        "bernoulli",
        "persistent",
        "mixture",
    )

    def _delay_specs(self, sequence) -> Dict[str, Dict[str, Any]]:
        """One spec per family; parameters jittered ±10 % by the seed."""
        rng = np.random.default_rng(sequence)

        def near(value: float) -> float:
            return float(value * rng.uniform(0.9, 1.1))

        stragglers = sorted(
            int(w) for w in rng.choice(24, size=3, replace=False)
        )
        return {
            "exponential": {"kind": "exponential", "mean": near(1.5)},
            "shifted-exponential": {
                "kind": "shifted-exponential",
                "shift": near(0.2),
                "mean": near(1.0),
            },
            "pareto": {
                "kind": "pareto", "alpha": near(2.5), "scale": near(0.3),
            },
            "bernoulli": {
                "kind": "bernoulli",
                "probability": near(0.25),
                "delay": {"kind": "exponential", "mean": near(3.0)},
            },
            "persistent": {
                "kind": "persistent",
                "stragglers": stragglers,
                "mean": near(3.0),
                "background_mean": near(0.5),
            },
            "mixture": {
                "kind": "mixture",
                "models": [
                    {"kind": "exponential", "mean": near(0.5)},
                    {"kind": "pareto", "alpha": near(2.5),
                     "scale": near(1.0)},
                ],
                "weights": [0.8, 0.2],
            },
        }

    def build(self, seeds, workdir):
        config = Fig11Config(
            num_steps=self.NUM_STEPS, seed=seed_int(seeds["fig11"])
        )
        specs = self._delay_specs(seeds["env_params"])
        environments = {
            family: Environment(delay=specs[family])
            for family in self.FAMILIES
        }
        env_seeds = dict(zip(
            self.FAMILIES, seeds["env_rng"].spawn(len(self.FAMILIES))
        ))
        return {
            "config": config,
            "environments": environments,
            "env_seeds": env_seeds,
        }

    def rounds(self, inputs):
        cfg = inputs["config"]
        cells = 2 + 2 * len(cfg.wait_values)
        conditions = len(cfg.expected_delays) * len(cfg.num_delayed_options)
        return (
            (conditions + 1) * cells * cfg.num_steps
            + len(self.FAMILIES) * self.ENV_ROUNDS
        )

    def decodes(self, inputs):
        cfg = inputs["config"]
        return len(cfg.wait_values) * cfg.num_steps

    def run(self, inputs, workdir, rec=None):
        cfg = inputs["config"]
        jobs = []

        started = clock()
        with _span(rec, "harness.job.fig11"):
            fig11 = run_fig11(cfg)
        jobs.append(("fig11", clock() - started))

        env_clocks = {}
        policy = WaitForK(18)
        for family in self.FAMILIES:
            started = clock()
            with _span(rec, f"harness.job.env.{family}"):
                simulator = inputs["environments"][family].simulator(
                    24, 2,
                    rng=np.random.default_rng(inputs["env_seeds"][family]),
                )
                for step in range(self.ENV_ROUNDS):
                    simulator.run_round(step, policy)
                env_clocks[family] = simulator.clock
            jobs.append((f"env.{family}", clock() - started))

        trace_path = workdir / "fig11_trace.jsonl"
        started = clock()
        with _span(rec, "harness.job.fig11_traced"):
            points, _tracer = run_traced_fig11(cfg, out_path=trace_path)
            aggregates = aggregate_traces(read_traces(trace_path))
        jobs.append(("fig11_traced", clock() - started))
        return {
            "jobs": jobs,
            "fig11": fig11,
            "env_clocks": env_clocks,
            "points": points,
            "aggregates": aggregates,
            "trace_bytes": trace_path.read_bytes(),
        }

    def digest_payload(self, inputs, outputs):
        return {
            "fig11": {
                f"{delay}/{delayed}": [
                    (p.scheme, p.avg_step_time) for p in points
                ]
                for (delay, delayed), points in sorted(
                    outputs["fig11"].items()
                )
            },
            "env_clocks": outputs["env_clocks"],
            "traced": [(p.scheme, p.avg_step_time) for p in outputs["points"]],
            "trace": outputs["trace_bytes"],
        }

    def check(self, inputs, outputs, workdir):
        failures = []
        steps = inputs["config"].num_steps
        for point in outputs["points"]:
            aggregate = outputs["aggregates"].get(point.scheme)
            if aggregate is None or (
                aggregate.mean_step_time != point.avg_step_time
                or aggregate.rounds != steps
            ):
                failures.extend(
                    f"{point.scheme}: re-aggregated trace disagrees "
                    "with the live run"
                    for _ in range(steps)
                )
        for family, sim_clock in outputs["env_clocks"].items():
            if not (math.isfinite(sim_clock) and sim_clock > 0):
                failures.extend(
                    f"env.{family}: simulated clock {sim_clock}"
                    for _ in range(self.ENV_ROUNDS)
                )
        return self.rounds(inputs), failures


# ----------------------------------------------------------------------
# decode_mc


def exact_mis_size(adjacency: Sequence[int], mask: int) -> int:
    """Independence number of the subgraph induced by ``mask``.

    ``adjacency[v]`` is vertex ``v``'s neighbourhood as a bitset.  An
    oracle of the benchmark's own (branch on the lowest vertex,
    memoised on the remaining bitset), so a decoder and the library's
    MIS routine cannot be wrong together unnoticed.
    """

    @lru_cache(maxsize=None)
    def solve(remaining: int) -> int:
        if not remaining:
            return 0
        low = remaining & -remaining
        vertex = low.bit_length() - 1
        rest = remaining ^ low
        taken = 1 + solve(rest & ~adjacency[vertex])
        if not adjacency[vertex] & rest:
            return taken
        return max(taken, solve(rest))

    return solve(mask)


class DecodeMC(Workload):
    name = "decode_mc"
    seed_names = ("masks", "decoders", "sample")
    NUM_WORKERS = 48
    BATCH = 7000
    LOOPED = 1400
    DISTINCT = 200
    ORACLE_SAMPLE = 200
    FAMILIES = (
        ("fr", {"num_workers": 48, "partitions_per_worker": 3}),
        ("cr", {"num_workers": 48, "partitions_per_worker": 3}),
        ("hr", {"num_workers": 48, "c1": 1, "c2": 2, "num_groups": 12}),
    )

    def _masks(self, rng, count: int) -> np.ndarray:
        """``count`` masks with ``|W'|`` uniform in ``[n/4, 3n/4]``."""
        n = self.NUM_WORKERS
        sizes = rng.integers(n // 4, 3 * n // 4 + 1, size=count)
        ranks = rng.random((count, n)).argsort(axis=1).argsort(axis=1)
        return ranks < sizes[:, None]

    def build(self, seeds, workdir):
        mask_seeds = seeds["masks"].spawn(len(self.FAMILIES))
        decoder_seeds = seeds["decoders"].spawn(len(self.FAMILIES))
        families = {}
        for (family, params), mask_seed, decoder_seed in zip(
            self.FAMILIES, mask_seeds, decoder_seeds
        ):
            rng = np.random.default_rng(mask_seed)
            batch = self._masks(rng, self.BATCH)
            looped = [
                np.flatnonzero(row).tolist() for row in batch[:self.LOOPED]
            ]
            distinct = self._masks(rng, self.DISTINCT)
            picks = rng.integers(self.DISTINCT, size=self.LOOPED)
            cached = [np.flatnonzero(distinct[i]).tolist() for i in picks]
            scheme = placement_scheme(family, **params)
            placement = repro.make_placement(family, **params)
            families[family] = {
                "scheme": scheme,
                "placement": placement,
                "graph": scheme.conflict_graph(),
                "graph_truth": repro.conflict_graph(placement),
                "batch": batch,
                "looped": looped,
                "cached": cached,
                "decoder_seed": decoder_seed,
            }
        return {"families": families, "sample_seed": seeds["sample"]}

    def rounds(self, inputs):
        # Nothing is simulated here; one mask stands for one round's
        # availability pattern, so both throughputs read masks/s.
        return self.decodes(inputs)

    def decodes(self, inputs):
        return len(self.FAMILIES) * (self.BATCH + 2 * self.LOOPED)

    def run(self, inputs, workdir, rec=None):
        jobs, results = [], {}
        for family, data in inputs["families"].items():
            scheme = data["scheme"]

            def decoder(cache=None):
                return scheme.decoder(
                    rng=np.random.default_rng(data["decoder_seed"]),
                    cache=cache,
                )

            # One job per family: its three uses back to back.
            started = clock()
            with _span(rec, f"harness.job.{family}"):
                batch = decoder().decode_batch(data["batch"])
                looped_decoder = decoder()
                with _renamed(
                    rec, "core.decode", f"core.decode_looped.{family}"
                ):
                    looped = [
                        looped_decoder.decode(mask)
                        for mask in data["looped"]
                    ]
                cache = DecodeCache()
                cached_decoder = decoder(cache)
                with _renamed(
                    rec, "core.decode", f"core.decode_cached.{family}"
                ):
                    cached = [
                        cached_decoder.decode(mask)
                        for mask in data["cached"]
                    ]
            jobs.append((family, clock() - started))
            results[family] = {
                "batch": batch,
                "looped": looped,
                "looped_rng": looped_decoder.rng.bit_generator.state,
                "cached": cached,
                "cache": cache,
            }
        return {"jobs": jobs, "results": results}

    def digest_payload(self, inputs, outputs):
        return {
            family: {
                "batch": np.packbits(result["batch"].selected).tobytes(),
                "searches": int(result["batch"].num_searches.sum()),
                "looped": [
                    sorted(r.selected_workers) for r in result["looped"]
                ],
                "cached": [
                    sorted(r.selected_workers) for r in result["cached"]
                ],
                "cache_hits": result["cache"].hits,
            }
            for family, result in outputs["results"].items()
        }

    def check(self, inputs, outputs, workdir):
        failures = []
        sample_rng = np.random.default_rng(inputs["sample_seed"])
        n = self.NUM_WORKERS
        for family, data in inputs["families"].items():
            result = outputs["results"][family]
            graph = data["graph"]
            if graph != data["graph_truth"]:
                failures.append(
                    f"{family}: fast-path conflict graph differs from "
                    "the partition-intersection ground truth"
                )
            adjacency = np.zeros((n, n), dtype=bool)
            for edge in graph.edges:
                u, v = tuple(edge)
                adjacency[u, v] = adjacency[v, u] = True
            bitsets = [
                sum(1 << int(v) for v in np.flatnonzero(adjacency[u]))
                for u in range(n)
            ]
            selected = result["batch"].selected

            # Batched == looped on the prefix: selections and the
            # generator's end state (a fresh batch over the prefix
            # alone consumes exactly the looped stream).
            prefix_decoder = data["scheme"].decoder(
                rng=np.random.default_rng(data["decoder_seed"])
            )
            prefix = prefix_decoder.decode_batch(
                data["batch"][:self.LOOPED]
            )
            if (
                prefix_decoder.rng.bit_generator.state
                != result["looped_rng"]
            ):
                failures.append(
                    f"{family}: generator end state differs between "
                    "batched and looped decoding"
                )
            looped_rows = np.zeros((self.LOOPED, n), dtype=bool)
            for i, res in enumerate(result["looped"]):
                looped_rows[i, list(res.selected_workers)] = True
            cached_rows = np.zeros((self.LOOPED, n), dtype=bool)
            for i, res in enumerate(result["cached"]):
                cached_rows[i, list(res.selected_workers)] = True
            for label, rows, reference in (
                ("batch prefix", selected[:self.LOOPED], looped_rows),
                ("fresh prefix batch", prefix.selected, looped_rows),
            ):
                for i in np.flatnonzero((rows != reference).any(axis=1)):
                    failures.append(
                        f"{family}: {label} row {i} != looped selection"
                    )

            # Every selection is an independent set of available workers.
            cached_avail = np.zeros((self.LOOPED, n), dtype=bool)
            for i, mask in enumerate(data["cached"]):
                cached_avail[i, mask] = True
            adjacency_f = adjacency.astype(np.float64)
            for label, rows, avail in (
                ("batch", selected, data["batch"]),
                ("looped", looped_rows, data["batch"][:self.LOOPED]),
                ("cached", cached_rows, cached_avail),
            ):
                rows_f = rows.astype(np.float64)
                conflicts = ((rows_f @ adjacency_f) * rows_f).sum(axis=1)
                bad = (conflicts > 0) | (rows & ~avail).any(axis=1)
                bad |= ~rows.any(axis=1)
                for i in np.flatnonzero(bad):
                    failures.append(
                        f"{family}: {label} row {i} is not an independent "
                        "set of available workers"
                    )

            # Sampled masks reach the exact maximum.
            for i in sample_rng.choice(
                self.BATCH, size=self.ORACLE_SAMPLE, replace=False
            ):
                mask = sum(
                    1 << int(w) for w in np.flatnonzero(data["batch"][i])
                )
                best = exact_mis_size(tuple(bitsets), mask)
                if int(selected[i].sum()) != best:
                    failures.append(
                        f"{family}: batch row {i} selected "
                        f"{int(selected[i].sum())} workers, exact MIS "
                        f"is {best}"
                    )
        return self.decodes(inputs), failures


# ----------------------------------------------------------------------
# serve_mailbox / serve_inproc


def _serve_specs(count: int, rounds: int, sequence, prefix: str):
    """``count`` jobs at n=12, c=3, w=9, schemes cycling cr/fr/hr/gc."""
    schemes = (
        ("is-gc-cr", {}),
        ("is-gc-fr", {}),
        ("is-gc-hr", {"c1": 1, "c2": 2, "num_groups": 3}),
        ("gc", {"seed": GC_CODE_SEED}),
    )
    children = sequence.spawn(count)
    payloads = []
    for i in range(count):
        scheme, params = schemes[i % len(schemes)]
        payloads.append({
            "name": f"{prefix}-{i:03d}-{scheme}",
            "scheme": scheme,
            "scheme_params": params,
            "num_workers": 12,
            "partitions_per_worker": 3,
            "wait_for": 9,
            "max_steps": rounds,
            "seed": seed_int(children[i]),
        })
    return _parse_specs(payloads)


def _report_payload(report) -> Dict[str, Any]:
    payload = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    payload.pop("trace_path", None)
    return payload


async def _await_terminal(handle, done_at: Dict[str, float]) -> None:
    try:
        await handle.result()
    except ServeError:
        pass  # a failed job is counted by the check, not raised here
    done_at[handle.job_id] = clock()


class _ServeWorkload(Workload):
    seed_names = ("specs",)

    def rounds(self, inputs):
        return sum(spec.max_steps for spec in inputs["specs"])

    def decodes(self, inputs):
        return sum(
            spec.max_steps
            for spec in inputs["specs"]
            if spec.scheme.startswith("is-gc")
        )

    def _reference(self, spec) -> Dict[str, Any]:
        return _report_payload(build_run_report(run_spec(spec), spec=spec))

    def digest_payload(self, inputs, outputs):
        return {
            "reports": outputs["reports"],
            "traces": outputs.get("traces", {}),
        }


class ServeMailboxWorkload(_ServeWorkload):
    name = "serve_mailbox"
    JOBS = 8
    ROUNDS = 100

    def build(self, seeds, workdir):
        specs = _serve_specs(self.JOBS, self.ROUNDS, seeds["specs"], "mbox")
        ServeMailbox(workdir / "mailbox-probe")
        return {"specs": specs, "repeat": 0}

    def run(self, inputs, workdir, rec=None):
        inputs["repeat"] += 1
        root = workdir / f"mailbox-{inputs['repeat']}"
        trace_dir = workdir / f"traces-{inputs['repeat']}"
        client = CoordinatorClient(root)
        submitted = {}
        job_ids = []
        for i, spec in enumerate(inputs["specs"]):
            job_id = f"job-{i:02d}"
            submitted[job_id] = clock()
            client.submit(spec, job_id=job_id)
            job_ids.append(job_id)
        done_at: Dict[str, float] = {}
        seen_done: Dict[str, bool] = {}
        coordinator = Coordinator(
            mode="deterministic", max_running=4, trace_dir=trace_dir
        )

        async def watch(job_id: str) -> None:
            # The handle exists once the coordinator has polled the
            # inbox; its done event fires after the terminal state file
            # is on disk, which is what a polling client would see.
            while True:
                try:
                    handle = coordinator.handle(job_id)
                    break
                except ServeError:
                    await asyncio.sleep(0)
            await _await_terminal(handle, done_at)
            state = client.state(job_id)
            seen_done[job_id] = (
                state is not None and state.get("state") == "done"
            )

        async def main() -> None:
            watchers = [
                asyncio.create_task(watch(job_id)) for job_id in job_ids
            ]
            await coordinator.serve(ServeMailbox(root), once=True)
            await asyncio.gather(*watchers)

        with _span(rec, "serve.coordinator"):
            with coordinator:
                asyncio.run(main())
        states = {job_id: client.state(job_id) for job_id in job_ids}
        reports, traces = {}, {}
        for job_id in job_ids:
            state = states[job_id] or {}
            report = state.get("report")
            reports[job_id] = (
                _report_payload(report) if report is not None else None
            )
            path = (report or {}).get("trace_path")
            traces[job_id] = (
                pathlib.Path(path).read_bytes() if path else None
            )
        return {
            "jobs": [
                (job_id, done_at[job_id] - submitted[job_id])
                for job_id in job_ids
            ],
            "states": {k: (v or {}).get("state") for k, v in states.items()},
            "seen_done": seen_done,
            "reports": reports,
            "traces": traces,
            "pool": coordinator.pool.stats.to_dict(),
        }

    def check(self, inputs, outputs, workdir):
        failures = []
        for i, spec in enumerate(inputs["specs"]):
            job_id = f"job-{i:02d}"
            problems = []
            if outputs["states"][job_id] != "done":
                problems.append(f"state {outputs['states'][job_id]!r}")
            elif not outputs["seen_done"].get(job_id):
                problems.append("terminal state not visible to the client")
            else:
                if outputs["reports"][job_id] != self._reference(spec):
                    problems.append("report != sequential run_spec")
                solo = workdir / f"solo-{job_id}.jsonl"
                tracer = RoundTracer(scheme=spec.name)
                repro.build_engine(spec, tracer=tracer).run(spec.max_steps)
                tracer.export_jsonl(solo)
                if outputs["traces"][job_id] != solo.read_bytes():
                    problems.append("trace bytes != sequential traced run")
            failures.extend(f"{job_id}: {p}" for p in problems)
        return len(inputs["specs"]), failures


class ServeInprocWorkload(_ServeWorkload):
    name = "serve_inproc"
    JOBS = 100
    ROUNDS = 11

    def build(self, seeds, workdir):
        return {
            "specs": _serve_specs(
                self.JOBS, self.ROUNDS, seeds["specs"], "inproc"
            )
        }

    def run(self, inputs, workdir, rec=None):
        specs = inputs["specs"]
        coordinator = Coordinator(
            mode="deterministic",
            max_running=8,
            pool_capacity=4,
            queue_limit=2 * len(specs),
        )
        submitted: Dict[str, float] = {}
        done_at: Dict[str, float] = {}
        handles = []

        async def main() -> None:
            for spec in specs:
                started = clock()
                handle = coordinator.submit(spec)
                submitted[handle.job_id] = started
                handles.append(handle)
            watchers = [
                asyncio.create_task(_await_terminal(handle, done_at))
                for handle in handles
            ]
            await coordinator.drain()
            await asyncio.gather(*watchers)

        with _span(rec, "serve.coordinator"):
            with coordinator:
                asyncio.run(main())
        return {
            "jobs": [
                (h.job_id, done_at[h.job_id] - submitted[h.job_id])
                for h in handles
            ],
            "states": {h.job_id: h.state.value for h in handles},
            "reports": {
                h.job_id: (
                    _report_payload(h.report) if h.report is not None
                    else None
                )
                for h in handles
            },
            "pool": coordinator.pool.stats.to_dict(),
        }

    def check(self, inputs, outputs, workdir):
        failures = []
        for spec, (job_id, state) in zip(
            inputs["specs"], outputs["states"].items()
        ):
            if state != "done":
                failures.append(f"{job_id}: state {state!r}")
            elif outputs["reports"][job_id] != self._reference(spec):
                failures.append(f"{job_id}: report != sequential run_spec")
        return len(inputs["specs"]), failures


# ----------------------------------------------------------------------
# sweep_grid


class SweepGrid(Workload):
    name = "sweep_grid"
    seed_names = ("spec",)
    ROUNDS = 120
    AXES = {
        "wait_for": [6, 12, 18, 24],
        "scheme": ["is-gc-cr", "is-gc-fr", "is-sgd", "gc"],
    }

    def build(self, seeds, workdir):
        (base,) = _parse_specs([{
            **PAPER_CLUSTER,
            "name": "grid",
            "scheme": "is-gc-cr",
            # scheme_params are shared by every grid point, `gc` included.
            "scheme_params": {"seed": GC_CODE_SEED},
            "max_steps": self.ROUNDS,
            "seed": seed_int(seeds["spec"]),
        }])
        return {"base": base}

    def _points(self) -> int:
        return math.prod(len(values) for values in self.AXES.values())

    def rounds(self, inputs):
        return self._points() * self.ROUNDS

    def decodes(self, inputs):
        coded = sum(s.startswith("is-gc") for s in self.AXES["scheme"])
        return len(self.AXES["wait_for"]) * coded * self.ROUNDS

    def _sweep(self, inputs) -> Sweep:
        return Sweep.over_spec("grid", inputs["base"], self.AXES)

    def run(self, inputs, workdir, rec=None):
        arrivals: List[Tuple[int, float]] = []
        executor = ProcessExecutor(
            2,
            on_event=lambda event: (
                arrivals.append((event.index, clock()))
                if event.kind == "point" else None
            ),
        )
        started = clock()
        result = self._sweep(inputs).run(executor=executor)
        return {
            "jobs": [
                (f"point-{index:02d}", at - started)
                for index, at in sorted(arrivals)
            ],
            "result": result,
        }

    def digest_payload(self, inputs, outputs):
        return [
            {
                "params": point.params,
                "error": point.error_summary,
                **(_summary_payload(point.value) if point.ok else {}),
            }
            for point in outputs["result"]
        ]

    def serial(self, inputs):
        """The reference run (and, traced, ``parallel.serial_run``)."""
        return self._sweep(inputs).run(executor=SerialExecutor())

    def check(self, inputs, outputs, workdir):
        reference = outputs.get("serial") or self.serial(inputs)
        failures = []
        for got, want in zip(outputs["result"], reference):
            if not got.ok:
                failures.append(f"{got.params}: {got.error_summary}")
            elif got.params != want.params or got.value != want.value:
                failures.append(f"{got.params}: differs from serial run")
        missing = self._points() - len(outputs["result"])
        failures.extend("grid point missing" for _ in range(missing))
        return self._points(), failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        TrainMix(),
        StepTimeEnv(),
        DecodeMC(),
        ServeMailboxWorkload(),
        ServeInprocWorkload(),
        SweepGrid(),
    )
}

"""Fig. 11 — average time per step under exponential stragglers.

The paper trains ResNet-18/ImageNet on 24 workers and injects
exponential delays (mean 1.5 s / 3.0 s) on 12 or all 24 workers before
each upload.  Step *time* depends only on arrival order, so this
experiment runs the event simulator directly — the gradient pipeline
adds nothing to the measurement.

Schemes compared (as in the paper):

* synchronous SGD (``c = 1``, wait all);
* GC with ``c = 2`` (wait ``n - 1``);
* IS-SGD (``c = 1``, wait ``w``);
* IS-GC (``c = 2``, wait ``w``).

Expected shape (paper, Sec. VIII-B): sync-SGD and GC suffer badly
(GC even worse than sync because of the larger ``c``); IS-GC saves up
to ~75 % of step time; IS-GC is above IS-SGD but the overhead shrinks
below ~10 % when delays dominate (mean 3.0 s).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..analysis.reporting import Table
from ..core.scheme import make_placement
from ..core.decoders import Decoder, decoder_for
from ..env import delay_model_from, make_compute_model, make_delay_model
from ..parallel import PointTask, SweepExecutor
from ..simulation.cluster import ClusterSimulator
from ..simulation.policies import WaitForK, WaitPolicy
from ..straggler.traces import DelayTrace
from .config import Fig11Config

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import RoundTracer


@dataclass(frozen=True)
class SchemePoint:
    """Average step time of one scheme under one delay condition."""

    scheme: str
    wait_for: int
    partitions_per_worker: int
    avg_step_time: float


def avg_step_time(
    trace: DelayTrace,
    cfg: Fig11Config,
    partitions_per_worker: int,
    policy: WaitPolicy,
    tracer: "RoundTracer | None" = None,
    scheme_label: str | None = None,
    decoder: Decoder | None = None,
) -> float:
    """Replay the shared delay trace under one scheme's policy.

    With a ``tracer``, every round is recorded under ``scheme_label``;
    schemes that decode (``decoder`` given) also enrich each round with
    the decode outcome so recovery fractions land in the trace.
    """
    if tracer is not None and scheme_label is not None:
        tracer.set_context(scheme=scheme_label)
    sim = ClusterSimulator(
        num_workers=cfg.num_workers,
        partitions_per_worker=partitions_per_worker,
        compute=make_compute_model(
            "uniform",
            base=cfg.base_compute,
            per_partition=cfg.per_partition_compute,
        ),
        delay_model=delay_model_from(trace),
        rng=np.random.default_rng(cfg.seed),
        tracer=tracer,
    )
    times: List[float] = []
    accepted: List[frozenset] = []
    trace_decodes = tracer is not None and decoder is not None
    for step in range(cfg.num_steps):
        result = sim.run_round(step, policy)
        times.append(result.step_time)
        if trace_decodes:
            accepted.append(result.outcome.accepted_workers)
    if trace_decodes:
        # One vectorized decode over the whole run.  Safe to defer:
        # record_decode enriches each already-recorded round in place
        # (keyed on step), and batched decoding consumes the decoder's
        # generator in step order exactly as the per-step loop did.
        batch = decoder.decode_batch(accepted)
        num_partitions = decoder.placement.num_partitions
        for step in range(cfg.num_steps):
            tracer.record_decode(
                step,
                decoder_scheme=decoder.scheme,
                num_searches=int(batch.num_searches[step]),
                num_recovered=int(batch.num_recovered[step]),
                num_partitions=num_partitions,
            )
    return float(np.mean(times))


def run_condition(
    cfg: Fig11Config,
    expected_delay: float,
    num_delayed: int,
    tracer: "RoundTracer | None" = None,
) -> List[SchemePoint]:
    """All schemes under one (delay mean, #delayed workers) condition.

    Every scheme replays the *same* recorded delay trace, exactly like
    the paper's controlled-seed methodology.  With a ``tracer``, every
    round of every scheme lands in the trace stream; the decoding
    schemes additionally record recovery via the real CR decoder.
    """
    n = cfg.num_workers
    c = cfg.partitions_per_worker
    rng = np.random.default_rng((cfg.seed, int(expected_delay * 1000), num_delayed))
    model = make_delay_model(
        "exponential", mean=expected_delay, affected=range(num_delayed)
    )
    trace = DelayTrace.record(model, n, cfg.num_steps, rng)

    # Decoders are only built when tracing asks for recovery numbers;
    # the pure timing measurement stays decoder-free.
    def cr_decoder() -> Decoder | None:
        if tracer is None:
            return None
        return decoder_for(
            make_placement("cr", num_workers=n, partitions_per_worker=c),
            rng=np.random.default_rng(cfg.seed),
        )

    # Declarative cells: (label, wait count, partitions/worker, decoder).
    # Each cell replays the shared trace under its own wait policy; only
    # the IS-GC cells carry a decoder (the others either wait for full
    # recovery or don't code at all).
    cells: List[Tuple[str, int, int, Decoder | None]] = [
        ("sync-sgd", n, 1, None),
        ("gc", n - c + 1, c, None),
    ]
    for w in cfg.wait_values:
        cells.append((f"is-sgd(w={w})", w, 1, None))
        cells.append((f"is-gc(w={w})", w, c, cr_decoder()))
    return [
        SchemePoint(
            label, wait_for, ppw,
            avg_step_time(
                trace, cfg, ppw, WaitForK(wait_for),
                tracer=tracer, scheme_label=label, decoder=decoder,
            ),
        )
        for label, wait_for, ppw, decoder in cells
    ]


def run_fig11(
    cfg: Fig11Config | None = None,
    tracer: "RoundTracer | None" = None,
    executor: "SweepExecutor | None" = None,
) -> Dict[Tuple[float, int], List[SchemePoint]]:
    """Both panels: every (delay mean, #delayed) condition.

    Conditions are independent (each builds its own trace from
    ``(cfg.seed, delay, num_delayed)``), so any
    :class:`~repro.parallel.SweepExecutor` reproduces the serial
    results bit-for-bit.  Tracing forces the serial path — a tracer
    accumulates in-process state that cannot cross a pool boundary.
    """
    cfg = cfg or Fig11Config()
    conditions = [
        (delay, num_delayed)
        for delay in cfg.expected_delays
        for num_delayed in cfg.num_delayed_options
    ]
    if tracer is not None or executor is None:
        return {
            (delay, num_delayed): run_condition(
                cfg, delay, num_delayed, tracer=tracer
            )
            for delay, num_delayed in conditions
        }
    tasks = [
        PointTask(
            index=i,
            params={"expected_delay": delay, "num_delayed": num_delayed},
        )
        for i, (delay, num_delayed) in enumerate(conditions)
    ]
    outcomes = executor.run(
        functools.partial(run_condition, cfg), tasks, reraise=True
    )
    return {conditions[o.index]: o.value for o in outcomes}


def run_traced_fig11(
    cfg: Fig11Config | None = None,
    out_path=None,
    expected_delay: float | None = None,
    num_delayed: int | None = None,
) -> Tuple[List[SchemePoint], "RoundTracer"]:
    """One traced Fig. 11 condition: run, optionally export JSONL.

    Runs a *single* (delay, num_delayed) condition — the first of the
    config by default — so scheme labels in the exported trace are
    unambiguous, and returns both the live scheme points and the tracer.
    Re-aggregating the exported trace reproduces the live per-scheme
    mean step times exactly (pinned by ``tests/test_obs_integration``).
    """
    from ..obs.tracer import RoundTracer

    cfg = cfg or Fig11Config()
    delay = expected_delay if expected_delay is not None else cfg.expected_delays[0]
    delayed = num_delayed if num_delayed is not None else cfg.num_delayed_options[0]
    tracer = RoundTracer()
    points = run_condition(cfg, delay, delayed, tracer=tracer)
    if out_path is not None:
        tracer.export_jsonl(out_path)
    return points, tracer


def fig11_tables(
    cfg: Fig11Config | None = None,
    executor: "SweepExecutor | None" = None,
) -> List[Table]:
    """Render the Fig. 11 reproduction as printable tables."""
    cfg = cfg or Fig11Config()
    results = run_fig11(cfg, executor=executor)
    tables: List[Table] = []
    for (delay, num_delayed), points in sorted(results.items()):
        table = Table(
            title=(
                f"Fig 11 — avg time/step (s), E[delay]={delay}s on "
                f"{num_delayed}/{cfg.num_workers} workers"
            ),
            columns=[
                "scheme", "w", "c", "avg step time (s)",
                "vs sync-sgd", "vs gc",
            ],
        )
        sync_time = next(p for p in points if p.scheme == "sync-sgd").avg_step_time
        gc_time = next(p for p in points if p.scheme == "gc").avg_step_time
        for p in points:
            vs_sync = 100.0 * (1.0 - p.avg_step_time / sync_time)
            vs_gc = 100.0 * (1.0 - p.avg_step_time / gc_time)
            table.add_row(
                p.scheme, p.wait_for, p.partitions_per_worker,
                p.avg_step_time, f"{vs_sync:+.1f}%", f"{vs_gc:+.1f}%",
            )
        tables.append(table)
    return tables

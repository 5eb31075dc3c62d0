"""Fig. 12 — end-to-end training comparison at n = 4, c = 2.

Panels (all versus the wait count ``w``):

(a) percentage of gradients recovered — IS-GC recovers more than
    IS-SGD at every ``w`` and hits 100 % already at ``w = 3``;
    FR beats CR at ``w = 2``;
(b) number of steps to a loss threshold — fewer recovered gradients →
    more steps; the fully-recovered minimum is the sync-SGD step count;
(c) average time per step — IS-GC pays a modest overhead over IS-SGD
    (higher ``c``), both far below sync-SGD / GC under stragglers;
(d) total training time — the product of (b) and (c); the optimum sits
    at an intermediate ``w`` (the paper finds ``w = 2``).

Substitution: MLP on the CIFAR-like synthetic set replaces
ResNet-18/CIFAR-10 (see DESIGN.md); delays are exponential, and every
scheme replays the same recorded delay trace per trial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..analysis.recovery import monte_carlo_recovery
from ..analysis.reporting import Table
from ..analysis.stats import summarize_trials
from ..core.scheme import make_placement
from ..engine import FlatBackend, RoundEngine, SyncUpdate, make_strategy
from ..env import delay_model_from, make_delay_model
from ..parallel import PointTask, SweepExecutor
from ..simulation.cluster import ClusterSimulator
from ..straggler.traces import DelayTrace
from ..training.datasets import make_cifar_like, partition_dataset
from ..training.gradients import build_batch_streams
from ..training.models import MLPClassifier
from ..training.optimizers import SGD
from ..training.strategies import TrainingStrategy
from ..types import TrainingSummary
from .config import Fig12Config, Fig13Config


@dataclass(frozen=True)
class TrainingPoint:
    """Averaged outcome of one (scheme, w) cell across trials.

    The ``*_ci`` strings are "mean ± half-width" (95% Student-t over
    trials) when the cell ran more than one trial, plain means
    otherwise — the paper's own Fig. 12 averages 10 cloud trials.
    """

    scheme: str
    wait_for: int
    recovery_pct: float
    num_steps: float
    avg_step_time: float
    total_time: float
    reached_threshold: bool
    num_steps_ci: str = ""
    total_time_ci: str = ""


def _run_one(
    cfg: Fig12Config | Fig13Config,
    strategy: TrainingStrategy,
    trace: DelayTrace,
    streams,
    eval_data,
    max_steps: int,
    loss_threshold: float | None = None,
) -> TrainingSummary:
    """Train one scheme over a replayed trace (shared with Fig. 13)."""
    cluster = ClusterSimulator(
        num_workers=cfg.num_workers,
        partitions_per_worker=strategy.placement.partitions_per_worker,
        delay_model=delay_model_from(trace),
        rng=np.random.default_rng(cfg.seed),
    )
    engine = RoundEngine(
        MLPClassifier(8 * 8 * 3, hidden_units=32, num_classes=10, seed=0),
        streams,
        strategy,
        FlatBackend(cluster),
        SyncUpdate(SGD(cfg.learning_rate)),
        eval_data=eval_data,
    )
    return engine.run(max_steps, loss_threshold=loss_threshold)


def _strategies_for(cfg: Fig12Config, w: int, trial_seed: int) -> List[TrainingStrategy]:
    """The schemes competing at wait count ``w``, via the scheme registry.

    Per-trial decoder seeds (``trial_seed + 1`` for FR, ``+ 2`` for CR,
    ``trial_seed`` for classic GC) are unchanged from the hand-wired
    implementation, so default-config results are bit-identical.
    """
    n, c = cfg.num_workers, cfg.partitions_per_worker
    cells = [
        ("is-sgd", None),
        ("is-gc-fr", trial_seed + 1),
        ("is-gc-cr", trial_seed + 2),
    ]
    if w == n:
        cells.append(("sync-sgd", None))
    if w == n - c + 1:
        cells.append(("gc", trial_seed))
    return [
        make_strategy(
            scheme, num_workers=n, partitions_per_worker=c,
            wait_for=w, seed=seed,
        )
        for scheme, seed in cells
    ]


def _fig12_cell(cfg: Fig12Config, wait_for: int) -> List[TrainingPoint]:
    """One wait-count column: every scheme, averaged over trials.

    Self-contained (dataset, streams and traces all rebuild from
    ``cfg``'s seeds), hence picklable as ``partial(_fig12_cell, cfg)``
    and bit-identical under any executor.
    """
    n = cfg.num_workers
    w = wait_for
    dataset = make_cifar_like(cfg.dataset_samples, side=8, seed=cfg.seed)
    partitions = partition_dataset(dataset, n, seed=cfg.seed + 1)
    streams = build_batch_streams(partitions, cfg.batch_size, seed=cfg.seed + 2)

    cell: Dict[str, List[TrainingSummary]] = {}
    for trial in range(cfg.num_trials):
        trial_seed = cfg.seed + 1000 * trial
        trace = DelayTrace.record(
            make_delay_model(
                "exponential",
                mean=cfg.expected_delay,
                affected=range(cfg.num_straggling),
            ),
            n, cfg.max_steps, np.random.default_rng(trial_seed),
        )
        for strategy in _strategies_for(cfg, w, trial_seed):
            summary = _run_one(
                cfg, strategy, trace, streams, dataset,
                cfg.max_steps, cfg.loss_threshold,
            )
            cell.setdefault(strategy.name, []).append(summary)
    points: List[TrainingPoint] = []
    for scheme, summaries in cell.items():
        steps = [float(s.num_steps) for s in summaries]
        totals = [s.total_sim_time for s in summaries]
        points.append(
            TrainingPoint(
                scheme=scheme,
                wait_for=w,
                recovery_pct=100 * float(
                    np.mean([s.avg_recovery_fraction for s in summaries])
                ),
                num_steps=float(np.mean(steps)),
                avg_step_time=float(
                    np.mean([s.avg_step_time for s in summaries])
                ),
                total_time=float(np.mean(totals)),
                reached_threshold=all(s.reached_threshold for s in summaries),
                num_steps_ci=summarize_trials(steps).format(4),
                total_time_ci=summarize_trials(totals).format(4),
            )
        )
    return points


def run_fig12(
    cfg: Fig12Config | None = None,
    executor: "SweepExecutor | None" = None,
) -> Dict[int, List[TrainingPoint]]:
    """Panels (b)-(d): train every scheme at every w, averaged over trials."""
    cfg = cfg or Fig12Config()
    if executor is None:
        return {w: _fig12_cell(cfg, w) for w in cfg.wait_values}
    tasks = [
        PointTask(index=i, params={"wait_for": w})
        for i, w in enumerate(cfg.wait_values)
    ]
    outcomes = executor.run(
        functools.partial(_fig12_cell, cfg), tasks, reraise=True
    )
    return {cfg.wait_values[o.index]: o.value for o in outcomes}


def recovery_table(cfg: Fig12Config | None = None) -> Table:
    """Panel (a): Monte-Carlo recovered-gradient percentage vs w."""
    cfg = cfg or Fig12Config()
    n, c = cfg.num_workers, cfg.partitions_per_worker
    fr = make_placement("fr", num_workers=n, partitions_per_worker=c)
    cr = make_placement("cr", num_workers=n, partitions_per_worker=c)
    table = Table(
        title=f"Fig 12(a) — % of gradients recovered (n={n}, c={c})",
        columns=["w", "is-sgd", "is-gc-fr", "is-gc-cr"],
    )
    for w in cfg.wait_values:
        fr_stats = monte_carlo_recovery(
            fr, w, trials=cfg.recovery_trials, seed=cfg.seed
        )
        cr_stats = monte_carlo_recovery(
            cr, w, trials=cfg.recovery_trials, seed=cfg.seed
        )
        table.add_row(
            w,
            f"{100 * w / n:.1f}%",
            f"{100 * fr_stats.mean_fraction:.1f}%",
            f"{100 * cr_stats.mean_fraction:.1f}%",
        )
    return table


def fig12_tables(
    cfg: Fig12Config | None = None,
    executor: "SweepExecutor | None" = None,
) -> List[Table]:
    """All four panels as printable tables."""
    cfg = cfg or Fig12Config()
    tables = [recovery_table(cfg)]
    results = run_fig12(cfg, executor=executor)
    for panel, attr, ci_attr, unit in (
        ("(b) steps to threshold", "num_steps", "num_steps_ci", "steps"),
        ("(c) avg time per step", "avg_step_time", None, "s"),
        ("(d) total training time", "total_time", "total_time_ci", "s"),
    ):
        show_ci = ci_attr is not None and cfg.num_trials >= 2
        columns = ["w", "scheme", unit]
        if show_ci:
            columns.append("mean ± 95% CI")
        columns.append("hit threshold")
        table = Table(title=f"Fig 12{panel} [{unit}]", columns=columns)
        for w in sorted(results):
            for p in results[w]:
                row = [w, p.scheme, getattr(p, attr)]
                if show_ci:
                    row.append(getattr(p, ci_attr))
                row.append("yes" if p.reached_threshold else "no")
                table.add_row(*row)
        tables.append(table)
    return tables


def main() -> None:  # pragma: no cover - CLI entry
    """Print every table of this experiment."""
    for table in fig12_tables():
        table.show()


if __name__ == "__main__":  # pragma: no cover
    main()

"""Fig. 13 — the HR trade-off between FR and CR.

Sweep ``HR(8, c1, 4 - c1)`` with ``g = 2`` groups:

* ``c1 = 0``  → pure CR;
* ``c1 = 3``  → places identically to ``HR(8, 4, 0)``, i.e. FR
  (``n0 = c = 4``);
* intermediate ``c1`` interpolates — the conflict graph loses edges as
  ``c1`` grows (Theorem 7), so recovery improves monotonically.

Panel (a): recovered gradients vs ``c1`` at ``w = 2`` (Monte-Carlo).
Panel (b): training-loss curves vs step at ``w = 2`` for each ``c1`` —
more recovery per step means faster loss descent.  Each ``c1``'s
training run is an :class:`~repro.engine.ExperimentSpec`
(:func:`fig13_spec`) run by :func:`~repro.engine.run_spec`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis.recovery import monte_carlo_recovery
from ..analysis.reporting import Table
from ..core.hybrid import HybridRepetition
from ..engine import ExperimentSpec, run_spec
from ..env import make_model
from ..parallel import PointTask, SweepExecutor
from ..straggler.traces import DelayTrace
from .config import Fig13Config
from .fig12 import _cifar_like_dataset


@dataclass(frozen=True)
class HRPoint:
    """One c1 setting of the sweep."""

    c1: int
    c2: int
    mean_recovered: float
    mean_fraction: float
    loss_curve: Tuple[float, ...]


def _placement(cfg: Fig13Config, c1: int) -> HybridRepetition:
    from ..core.scheme import make_placement

    return make_placement(
        "hr", num_workers=cfg.num_workers, c1=c1, c2=cfg.total_c - c1,
        num_groups=cfg.num_groups,
    )


def fig13_spec(cfg: Fig13Config, c1: int) -> ExperimentSpec:
    """The ``c1`` setting's training run, as a spec.

    Every ``c1`` replays one recorded delay trace (inline, as a
    ``trace-replay`` delay section); the decoder seed is
    ``cfg.seed + c1`` (``scheme_params.seed``).
    """
    trace = DelayTrace.record(
        make_model("delay", "exponential", mean=1.0),
        cfg.num_workers, cfg.num_steps, np.random.default_rng(cfg.seed + 3),
    )
    return ExperimentSpec(
        name=f"fig13-c1-{c1}",
        scheme="is-gc-hr",
        num_workers=cfg.num_workers,
        partitions_per_worker=cfg.total_c,
        wait_for=cfg.wait_for,
        max_steps=cfg.num_steps,
        learning_rate=cfg.learning_rate,
        seed=cfg.seed,
        dataset=_cifar_like_dataset(cfg.dataset_samples, cfg.batch_size),
        model={"kind": "mlp"},
        delay={"kind": "trace-replay", "delays": trace.delays.tolist()},
        scheme_params={
            "c1": c1, "c2": cfg.total_c - c1, "num_groups": cfg.num_groups,
            "seed": cfg.seed + c1,
        },
    )


def _fig13_cell(cfg: Fig13Config, c1: int) -> HRPoint:
    """One ``c1`` setting, both panels.

    Self-contained (the recovery estimate and the training spec both
    rebuild from ``cfg``'s seeds), hence picklable as
    ``partial(_fig13_cell, cfg)`` and bit-identical under any executor.
    """
    stats = monte_carlo_recovery(
        _placement(cfg, c1), cfg.wait_for,
        trials=cfg.recovery_trials, seed=cfg.seed,
    )
    summary = run_spec(fig13_spec(cfg, c1))
    return HRPoint(
        c1=c1,
        c2=cfg.total_c - c1,
        mean_recovered=stats.mean_recovered,
        mean_fraction=stats.mean_fraction,
        loss_curve=summary.loss_curve,
    )


def run_fig13(
    cfg: Fig13Config | None = None,
    executor: "SweepExecutor | None" = None,
) -> List[HRPoint]:
    """Both panels for every ``c1``."""
    cfg = cfg or Fig13Config()
    if executor is None:
        return [_fig13_cell(cfg, c1) for c1 in cfg.c1_values]
    tasks = [
        PointTask(index=i, params={"c1": c1})
        for i, c1 in enumerate(cfg.c1_values)
    ]
    outcomes = executor.run(
        functools.partial(_fig13_cell, cfg), tasks, reraise=True
    )
    return [o.value for o in outcomes]


def fig13_tables(
    cfg: Fig13Config | None = None,
    executor: "SweepExecutor | None" = None,
) -> List[Table]:
    """Both panels as printable tables."""
    cfg = cfg or Fig13Config()
    points = run_fig13(cfg, executor=executor)

    recovery = Table(
        title=(
            "Fig 13(a) — recovered gradients vs c1, "
            f"HR({cfg.num_workers}, c1, {cfg.total_c}-c1), w={cfg.wait_for}"
        ),
        columns=["c1", "c2", "mean recovered partitions", "% of gradients"],
    )
    for p in points:
        recovery.add_row(
            p.c1, p.c2, p.mean_recovered, f"{100 * p.mean_fraction:.1f}%"
        )

    checkpoints = [
        s for s in (9, 19, 39, 59, 79, 99, cfg.num_steps - 1)
        if s < cfg.num_steps
    ]
    losses = Table(
        title=f"Fig 13(b) — training loss vs step, w={cfg.wait_for}",
        columns=["step", *(f"c1={p.c1}" for p in points)],
    )
    for s in checkpoints:
        losses.add_row(
            s + 1, *(p.loss_curve[s] if s < len(p.loss_curve) else float("nan")
                     for p in points)
        )
    return [recovery, losses]

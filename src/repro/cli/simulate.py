"""``repro simulate`` — a quick ad-hoc simulated training run."""

from __future__ import annotations

import argparse

import numpy as np

from ..engine.report import build_run_report
from .output import emit_summary
from .params import _add_placement_args, _build_placement, _parse_model_params
from .registry import register_command


def run_simulate(args: argparse.Namespace):
    """Build and run the ad-hoc simulation.

    Returns ``(report, summary)``: the structured :class:`RunReport`
    payload plus the raw engine summary the command prints from.
    """
    from ..engine import FlatBackend, RoundEngine, SyncUpdate, make_strategy
    from ..env import make_delay_model
    from ..simulation.cluster import ClusterSimulator
    from ..training.datasets import make_classification, partition_dataset
    from ..training.gradients import build_batch_streams
    from ..training.models import SoftmaxRegressionModel
    from ..training.optimizers import SGD

    placement = _build_placement(args)
    n = placement.num_workers
    dataset = make_classification(
        1024, 12, num_classes=3, separation=2.0, seed=args.seed
    )
    streams = build_batch_streams(
        partition_dataset(dataset, n, seed=args.seed + 1),
        batch_size=32, seed=args.seed + 2,
    )
    # Built through the scheme registry so CLI, specs and library code
    # share one construction path.
    if args.c == 1:
        strategy = make_strategy("is-sgd", num_workers=n, wait_for=args.w)
    else:
        scheme_params = {}
        if args.scheme == "hr":
            scheme_params = {
                "c1": args.c1, "c2": args.c - args.c1,
                "num_groups": args.g,
            }
        strategy = make_strategy(
            f"is-gc-{args.scheme}",
            num_workers=n,
            partitions_per_worker=args.c,
            wait_for=args.w,
            rng=np.random.default_rng(args.seed),
            **scheme_params,
        )
    # Delay models are built through the environment registry — the
    # same construction path specs and library code use; the
    # default is the historical exponential with --delay as its mean.
    delay_params = _parse_model_params(args.delay_param, flag="--delay-param")
    if args.delay_kind in ("exponential", "exp"):
        delay_params.setdefault("mean", args.delay)
    cluster = ClusterSimulator(
        n, placement.partitions_per_worker,
        delay_model=make_delay_model(args.delay_kind, **delay_params),
        rng=np.random.default_rng(args.seed + 3),
    )
    engine = RoundEngine(
        SoftmaxRegressionModel(12, 3, seed=0), streams, strategy,
        FlatBackend(cluster),
        SyncUpdate(SGD(args.lr)), eval_data=dataset,
    )
    summary = engine.run(max_steps=args.steps)
    return build_run_report(summary), summary


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a short simulated training job and print its summary."""
    report, summary = run_simulate(args)
    emit_summary(summary)
    if args.report is not None:
        report.write(args.report)
    return 0


@register_command("simulate", help="quick simulated training run")
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``simulate`` subparser (arguments + handler)."""
    _add_placement_args(parser)
    parser.add_argument("-w", type=int, required=True, help="workers to wait for")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--delay", type=float, default=1.0,
                        help="mean exponential straggler delay (s); shorthand "
                             "for --delay-param mean=... with the default kind")
    parser.add_argument("--delay-kind", default="exponential",
                        help="delay model kind from the environment registry "
                             "(see `repro environments`)")
    parser.add_argument("--delay-param", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="delay model parameter (repeatable), e.g. "
                             "--delay-kind pareto --delay-param alpha=2.5 "
                             "--delay-param scale=0.5")
    parser.add_argument("--lr", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="also write the structured RunReport JSON here")
    parser.set_defaults(func=cmd_simulate)

"""``repro recovery`` — Monte-Carlo recovery curve for a placement."""

from __future__ import annotations

import argparse

from ..analysis.recovery import monte_carlo_recovery
from ..analysis.reporting import Table
from .params import _add_placement_args, _placement_scheme
from .registry import register_command


def cmd_recovery(args: argparse.Namespace) -> int:
    """Print the Monte-Carlo recovery curve for a placement."""
    placement = _placement_scheme(args).construct()
    table = Table(
        title=f"Recovery curve — {type(placement).__name__}"
        f"(n={placement.num_workers}, c={placement.partitions_per_worker}), "
        f"{args.trials} trials per w",
        columns=["w", "mean recovered", "% of gradients", "min", "max"],
    )
    for w in range(1, placement.num_workers + 1):
        stats = monte_carlo_recovery(
            placement, w, trials=args.trials, seed=args.seed
        )
        table.add_row(
            w, round(stats.mean_recovered, 3),
            f"{100 * stats.mean_fraction:.1f}%",
            stats.min_recovered, stats.max_recovered,
        )
    table.show()
    return 0


@register_command("recovery", help="Monte-Carlo recovery curve")
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``recovery`` subparser (arguments + handler)."""
    _add_placement_args(parser)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=cmd_recovery)

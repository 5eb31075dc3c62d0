"""``repro bounds`` — Theorem 10/11 bound table for (n, c)."""

from __future__ import annotations

import argparse

from ..analysis.reporting import Table
from ..core.bounds import alpha_lower_bound, alpha_upper_bound
from ..exceptions import ReproError
from .registry import register_command


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print the Theorem 10/11 bound table for (n, c)."""
    if args.n < 1:
        # No w to tabulate; the per-row check would never run.
        raise ReproError(f"need n >= 1, got n={args.n}")
    table = Table(
        title=f"Theorem 10/11 bounds on α(G[W']) — n={args.n}, c={args.c}",
        columns=["w", "lower (Thm 10)", "upper (Thm 11)"],
    )
    for w in range(1, args.n + 1):
        table.add_row(
            w,
            alpha_lower_bound(args.n, args.c, w),
            alpha_upper_bound(args.n, args.c, w),
        )
    table.show()
    return 0


@register_command("bounds", help="Theorem 10/11 bound table")
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``bounds`` subparser (arguments + handler)."""
    parser.add_argument("-n", type=int, required=True)
    parser.add_argument("-c", type=int, required=True)
    parser.set_defaults(func=cmd_bounds)

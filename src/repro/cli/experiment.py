"""``repro experiment`` — run the paper experiments end to end."""

from __future__ import annotations

import argparse
import pathlib

from ..engine.report import RunReport
from .registry import register_command


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one of the paper experiments end to end."""
    from ..experiments.runner import main as runner_main

    argv = [args.figure]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    runner_main(argv)
    if args.report is not None:
        # Figure runs aggregate many training runs; the report carries
        # identity only (no single trajectory to embed).
        report = RunReport(name=args.figure, kind="experiment")
        pathlib.Path(args.report).write_text(report.to_json() + "\n")
    return 0


@register_command("experiment", help="run a paper experiment")
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``experiment`` subparser (arguments + handler)."""
    from ..experiments.runner import EXPERIMENTS

    parser.add_argument("figure", choices=(*EXPERIMENTS, "all"))
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="process-pool workers for the figure grid (default: serial; "
             "results are identical either way)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write a structured RunReport JSON stub here",
    )
    parser.set_defaults(func=cmd_experiment)

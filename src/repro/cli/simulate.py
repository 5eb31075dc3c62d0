"""``repro simulate`` — a quick ad-hoc simulated training run.

The flags describe an :class:`~repro.engine.ExperimentSpec`
(:func:`simulate_spec`), which runs and reports exactly as ``repro run``
runs and reports that spec from a file.
"""

from __future__ import annotations

import argparse

from ..engine.report import build_run_report
from ..exceptions import ReproError
from .output import emit_summary
from .params import _add_placement_args, _parse_model_params
from .registry import register_command


def simulate_spec(args: argparse.Namespace):
    """The :class:`~repro.engine.ExperimentSpec` the flags describe:
    softmax regression on a 3-class, 12-feature classification set,
    IS-SGD when ``-c 1`` and IS-GC over ``--scheme`` otherwise."""
    from ..engine.spec import ExperimentSpec

    scheme, scheme_params = f"is-gc-{args.scheme}", {}
    if args.scheme == "hr":
        if args.g is None or args.c1 is None:
            raise ReproError("HR needs --g and --c1 (c2 = c - c1)")
        scheme_params = {
            "c1": args.c1, "c2": args.c - args.c1, "num_groups": args.g,
        }
    if args.c == 1:
        scheme, scheme_params = "is-sgd", {}
    # The default delay is the historical exponential with --delay as
    # its mean.
    delay = {
        "kind": args.delay_kind,
        **_parse_model_params(args.delay_param, flag="--delay-param"),
    }
    if args.delay_kind in ("exponential", "exp"):
        delay.setdefault("mean", args.delay)
    return ExperimentSpec(
        name=scheme,
        scheme=scheme,
        num_workers=args.n,
        partitions_per_worker=args.c,
        wait_for=args.w,
        max_steps=args.steps,
        learning_rate=args.lr,
        seed=args.seed,
        dataset={
            "kind": "classification", "samples": 1024, "features": 12,
            "num_classes": 3, "separation": 2.0, "batch_size": 32,
        },
        model={"kind": "softmax"},
        delay=delay,
        scheme_params=scheme_params,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a short simulated training job and print its summary."""
    from ..engine.plan import run_spec

    spec = simulate_spec(args)
    summary = run_spec(spec)
    emit_summary(summary)
    build_run_report(summary, spec=spec, report_path=args.report)
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

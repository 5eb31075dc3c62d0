"""``repro decode`` — decode one round for an explicit worker set."""

from __future__ import annotations

import argparse

import numpy as np

from ..core.decoders import decoder_for
from .params import _add_placement_args, _placement_scheme
from .registry import register_command


def cmd_decode(args: argparse.Namespace) -> int:
    """Decode one round for an explicit available-worker set."""
    placement = _placement_scheme(args).construct()
    available = [int(tok) for tok in args.available.split(",") if tok]
    decoder = decoder_for(placement, rng=np.random.default_rng(args.seed))
    result = decoder.decode(available)
    print(f"available workers : {sorted(result.available_workers)}")
    print(f"selected workers  : {sorted(result.selected_workers)}")
    print(f"recovered         : {sorted(result.recovered_partitions)}")
    print(
        f"recovery          : {result.num_recovered}/{placement.num_partitions} "
        f"partitions ({100 * result.num_recovered / placement.num_partitions:.1f}%)"
    )
    return 0


@register_command("decode", help="decode one round")
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``decode`` subparser (arguments + handler)."""
    _add_placement_args(parser)
    parser.add_argument(
        "--available", required=True,
        help="comma-separated available worker ids, e.g. 0,2,5",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=cmd_decode)

"""Argument-parsing helpers shared by several subcommands.

Placement flags (``--scheme/-n/-c/--g/--c1``) are shared by
``placement``, ``decode``, ``recovery`` and ``simulate``; the
``KEY=VALUE`` parameter grammars are shared by ``placements``,
``environments``, ``simulate`` and ``run --sweep``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..core.placement import Placement
from ..core.scheme import make_placement
from ..exceptions import ReproError


def _build_placement(args: argparse.Namespace) -> Placement:
    # Every CLI placement goes through the placement registry, the same
    # construction path specs and library code use.
    if args.scheme == "hr":
        if args.g is None or args.c1 is None:
            raise ReproError("HR needs --g and --c1 (c2 = c - c1)")
        return make_placement(
            "hr", num_workers=args.n, c1=args.c1, c2=args.c - args.c1,
            num_groups=args.g,
        )
    return make_placement(
        args.scheme, num_workers=args.n, partitions_per_worker=args.c
    )


def _add_placement_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme", choices=("fr", "cr", "hr"), required=True,
        help="placement family",
    )
    parser.add_argument("-n", type=int, required=True, help="number of workers")
    parser.add_argument("-c", type=int, required=True, help="partitions per worker")
    parser.add_argument("--g", type=int, default=None, help="HR: number of groups")
    parser.add_argument("--c1", type=int, default=None, help="HR: upper-part rows")


def _parse_sweep_value(token: str):
    """``--sweep`` tokens: int if possible, else float, else string."""
    for caster in (int, float):
        try:
            return caster(token)
        except ValueError:
            continue
    return token


def _parse_sweep_axes(clauses: List[str]) -> dict:
    """``--sweep FIELD=V1,V2`` clauses → an axes dict.

    Shared by ``repro run --sweep`` and ``repro submit --sweep`` so the
    two commands accept the exact same grammar (and therefore describe
    the exact same grid — the bit-identity tests rely on it).
    """
    axes = {}
    for clause in clauses:
        name, sep, values = clause.partition("=")
        if not sep or not values:
            raise ReproError(
                f"--sweep needs field=v1,v2,... , got {clause!r}"
            )
        axes[name.strip()] = [
            _parse_sweep_value(tok) for tok in values.split(",") if tok
        ]
    return axes


def _parse_param_value(token: str):
    """Model-parameter values: JSON when it parses (``[0,1]``, ``0.5``,
    ``null``), else a comma token list, else the sweep scalar rules."""
    import json

    try:
        return json.loads(token)
    except ValueError:
        pass
    if "," in token:
        return [_parse_sweep_value(t) for t in token.split(",") if t]
    return _parse_sweep_value(token)


def _parse_model_params(
    clauses: Optional[List[str]], *, flag: str = "--param"
) -> dict:
    """``KEY=VALUE`` clauses → a model-parameter dict."""
    params = {}
    for clause in clauses or []:
        key, sep, value = clause.partition("=")
        if not sep or not value:
            raise ReproError(f"{flag} needs key=value, got {clause!r}")
        params[key.strip()] = _parse_param_value(value.strip())
    return params

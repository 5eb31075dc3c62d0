"""Argument-parsing helpers shared by several subcommands.

The placement grammar (``FAMILY -n N [-c C] [--param KEY=VALUE ...]``,
the placement registry's own) is shared by ``placements``, ``decode``,
``recovery`` and ``simulate``; the ``KEY=VALUE`` parameter grammars are
shared by those, ``environments`` and ``run --sweep``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..core.scheme import PlacementScheme, spec_placement_scheme
from ..exceptions import ReproError


def _placement_scheme(args: argparse.Namespace) -> PlacementScheme:
    """The registered family the placement flags name, under a spec's
    calling convention (``-n`` is ``num_workers``, ``-c`` the uniform
    ``partitions_per_worker``, ``--param`` the family's own keys).

    A family that derives ``c`` from its own parameters (``hr``,
    ``explicit``) needs no ``-c``; one given must agree with the ``c``
    it derives.
    """
    if args.n is None:
        raise ReproError(
            f"placement family {args.family!r} needs -n (number of workers)"
        )
    scheme = spec_placement_scheme(
        args.family, num_workers=args.n, partitions_per_worker=args.c,
        **_parse_model_params(args.param),
    )
    c = scheme.construct().partitions_per_worker
    if args.c is not None and args.c != c:
        raise ReproError(
            f"-c {args.c} disagrees with the {scheme.family!r} placement, "
            f"which stores c = {c} partitions per worker"
        )
    return scheme


def _add_placement_args(
    parser: argparse.ArgumentParser, *, catalogue: bool = False
) -> None:
    """The placement grammar; with ``catalogue`` the family is optional
    (``repro placements`` lists every family when it is omitted)."""
    parser.add_argument(
        "family", nargs="?" if catalogue else None, default=None,
        help="registered placement family (see `repro placements`)",
    )
    parser.add_argument("-n", type=int, default=None, required=not catalogue,
                        help="number of workers")
    parser.add_argument("-c", type=int, default=None,
                        help="partitions per worker (hr and explicit "
                             "derive it from --param)")
    parser.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help="family parameter (repeatable; JSON values), e.g. "
             "--param c1=2 or --param 'rows=[[0,1],[1,2]]'",
    )


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

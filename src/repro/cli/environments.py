"""``repro environments`` — the straggler-environment catalogue."""

from __future__ import annotations

import argparse

from ..analysis.reporting import Table
from ..env.registry import LAYERS
from ..exceptions import ReproError
from ..registry import did_you_mean
from .params import _parse_model_params
from .registry import register_command


def cmd_environments(args: argparse.Namespace) -> int:
    """List registered environment models, or describe one kind."""
    import inspect

    from ..env import (
        ENV_REGISTRY,
        make_model,
        model_fingerprint,
        model_spec,
        resolve_model,
    )

    if args.kind is None:
        table = Table(
            title="Registered environment models",
            columns=["layer", "kind", "aliases", "summary", "paper"],
        )
        for layer in LAYERS:
            for kind in sorted(ENV_REGISTRY[layer]):
                family = ENV_REGISTRY[layer][kind]
                table.add_row(
                    layer,
                    kind,
                    ", ".join(family.aliases) if family.aliases else "-",
                    family.summary,
                    family.paper,
                )
        table.show()
        return 0

    matches = []
    for layer in (args.layer,) if args.layer else LAYERS:
        try:
            matches.append(resolve_model(layer, args.kind))
        except ReproError as exc:
            if args.layer:
                raise ReproError(str(exc)) from exc
    if not matches:
        hint = did_you_mean(
            args.kind,
            {s for layer in LAYERS for s in ENV_REGISTRY[layer].spellings()},
        )
        raise ReproError(
            f"unknown environment model {args.kind!r} in any layer{hint}; "
            "run `repro environments` for the catalogue"
        )
    for family in matches:
        alias_note = (
            f" (aliases: {', '.join(family.aliases)})" if family.aliases else ""
        )
        print(f"[{family.layer}] {family.kind}{alias_note}")
        if family.summary:
            print(f"  {family.summary}")
        if family.paper:
            print(f"  paper: {family.paper}")
        rendered = [
            name if default is inspect.Parameter.empty
            else f"{name}={default!r}"
            for name, default in family.parameters.items()
        ]
        print(f"  params: {', '.join(rendered) if rendered else '(none)'}")
        if family.nested:
            print(
                f"  nested sub-model params: {', '.join(family.nested)}"
            )
    if args.param:
        if len(matches) > 1:
            raise ReproError(
                f"kind {args.kind!r} exists in several layers "
                f"({', '.join(f.layer for f in matches)}); pass --layer "
                "to build it"
            )
        family = matches[0]
        params = _parse_model_params(args.param)
        make_model(family.layer, family.kind, **params)  # checks the params
        section = {"kind": family.kind, **params}
        print(f"  spec        : {model_spec(family.layer, section)}")
        print(f"  fingerprint : {model_fingerprint(family.layer, section)}")
    return 0


@register_command(
    "environments",
    help="list registered environment models "
         "(delay/failure/compute/network/contention) / describe one",
)
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``environments`` subparser (arguments + handler)."""
    parser.add_argument(
        "kind", nargs="?", default=None,
        help="model kind to describe (omit to list the catalogue)",
    )
    parser.add_argument(
        "--layer",
        choices=LAYERS,
        default=None,
        help="restrict the kind lookup to one layer",
    )
    parser.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help="build the model with these parameters and print its "
             "canonical spec + fingerprint (repeatable)",
    )
    parser.set_defaults(func=cmd_environments)

"""Subcommand registry behind the ``repro`` argparse tree.

Each subcommand lives in its own module under :mod:`repro.cli` and
announces itself with :func:`register_command`::

    @register_command("bounds", help="Theorem 10/11 bound table")
    def configure(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("-n", type=int, required=True)
        parser.set_defaults(func=cmd_bounds)

The decorated function receives the subcommand's freshly created
subparser and wires arguments plus the ``func`` handler — exactly the
body the old monolithic ``build_parser`` had per command, now local to
the command's module.  Registration order (= module import order in
``repro/cli/__init__.py``) defines the ``--help`` listing, so the
canonical order is pinned there, not here.

Handlers return a process exit code; :func:`main` converts
:class:`ReproError`/``ValueError`` into the historical ``error: ...``
message on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..exceptions import ReproError
from ..registry import Registry

Configure = Callable[[argparse.ArgumentParser], None]

#: registration order defines the --help listing.
COMMAND_REGISTRY: Registry["Command"] = Registry(
    "CLI command", "commands", ValueError
)


@dataclass(frozen=True)
class Command:
    """One registered subcommand: its name, help line and wiring hook."""

    name: str
    help: str
    configure: Configure


def register_command(
    name: str, *, help: str
) -> Callable[[Configure], Configure]:
    """Decorator registering ``configure`` as subcommand ``name``.

    ``configure(parser)`` must add the command's arguments and set the
    ``func`` handler via ``parser.set_defaults`` (nested subcommands
    may set ``func`` on their own sub-subparsers instead, as ``trace``
    does).
    """

    def wrap(configure: Configure) -> Configure:
        COMMAND_REGISTRY.register(
            name, Command(name=name, help=help, configure=configure)
        )
        return configure

    return wrap


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every registered subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IS-GC (ICDCS 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMAND_REGISTRY.values():
        command.configure(sub.add_parser(command.name, help=command.help))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

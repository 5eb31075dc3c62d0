"""``repro check`` — the static-analysis pass."""

from __future__ import annotations

import argparse

from .registry import register_command


def cmd_check(args: argparse.Namespace) -> int:
    """Run the static-analysis pass; exit 0 clean / 1 findings / 2 usage."""
    import json as _json

    from ..staticcheck import (
        render_catalogue, render_json, render_text, run_check,
    )
    from ..staticcheck.report import catalogue_json, catalogue_markdown
    from ..staticcheck.sarif import render_sarif

    if args.list_rules:
        if args.format == "json":
            print(_json.dumps(catalogue_json(), indent=2))
        elif args.format == "markdown":
            print(catalogue_markdown())
        else:
            print(render_catalogue())
        return 0
    select = args.select.split(",") if args.select else None
    result = run_check(args.paths, select=select)

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    elif args.format == "markdown":
        raise ValueError(
            "--format markdown is only valid with --list-rules"
        )
    else:
        print(render_text(result))
    return 0 if result.ok else 1


@register_command(
    "check",
    help="static analysis: determinism and time units",
)
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``check`` subparser (arguments + handler)."""
    parser.add_argument(
        "paths", nargs="*",
        default=["src", "tests", "examples", "README.md", "docs"],
        help="files/directories to check (default: src tests examples "
             "README.md docs)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif", "markdown"),
        default="text",
        help="report format (sarif for code scanning; markdown only "
             "with --list-rules)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids or family prefixes to run "
             "(e.g. DET,TIME002; default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit (honours --format "
             "json/markdown)",
    )
    parser.set_defaults(func=cmd_check)

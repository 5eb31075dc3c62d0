"""``repro placements`` — the placement-family catalogue."""

from __future__ import annotations

import argparse

from ..analysis.reporting import Table
from .params import _add_placement_args, _placement
from .registry import register_command


def cmd_placements(args: argparse.Namespace) -> int:
    """List registered placement families, or describe one of them:
    its placement, fingerprint, recovery bounds and conflict graph."""
    from ..core.scheme import PLACEMENT_REGISTRY, registered_placements
    from ..graphs.render import adjacency_art, edge_list_art

    if args.family is None:
        table = Table(
            title="Registered placement families",
            columns=["family", "aliases", "summary", "paper"],
        )
        for name in registered_placements():
            cls = PLACEMENT_REGISTRY[name]
            table.add_row(
                name,
                ", ".join(cls.aliases) if cls.aliases else "-",
                cls.summary,
                cls.paper,
            )
        table.show()
        return 0

    placement = _placement(args)
    print(f"[{placement.family}] {placement.summary}".rstrip())
    if placement.paper:
        print(f"paper: {placement.paper}")
    print(placement.describe())
    print(f"fingerprint    : {placement.fingerprint}")
    table = Table(
        title=f"recovery bounds (Thm 10/11) — {placement.num_workers} workers",
        columns=["w", "lower", "upper"],
    )
    for w in range(1, placement.num_workers + 1):
        lo, hi = placement.recovery_bounds(w)
        table.add_row(w, lo, hi)
    table.show()
    graph = placement.conflict_graph()
    print(f"\nconflict graph ({graph.number_of_edges()} edges):")
    print(adjacency_art(graph))
    print()
    print(edge_list_art(graph))
    return 0


@register_command(
    "placements",
    help="list registered placement families / describe one",
)
def configure(parser: argparse.ArgumentParser) -> None:
    """Wire the ``placements`` subparser (arguments + handler)."""
    _add_placement_args(parser, catalogue=True)
    parser.set_defaults(func=cmd_placements)

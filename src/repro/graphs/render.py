"""ASCII rendering of conflict graphs.

Small conflict graphs (one vertex per worker) are best understood
visually; this renders them as an adjacency matrix plus a circular
edge list, which is what the CLI's ``placement`` command prints.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError
from .graph import Graph


def adjacency_art(graph: Graph) -> str:
    """An adjacency-matrix picture with worker labels.

    ``#`` marks a conflict, ``.`` no conflict, ``\\`` the diagonal.
    Only defined for integer-labelled graphs (worker indices).
    """
    vertices = sorted(graph.vertices)
    if not vertices:
        raise ConfigurationError("cannot render an empty graph")
    if not all(isinstance(v, int) for v in vertices):
        raise ConfigurationError("adjacency art needs integer vertices")
    width = len(str(vertices[-1]))
    header = " " * (width + 1) + " ".join(
        str(v).rjust(width) for v in vertices
    )
    lines = [header]
    for u in vertices:
        cells = []
        for v in vertices:
            if u == v:
                cells.append("\\".rjust(width))
            elif graph.has_edge(u, v):
                cells.append("#".rjust(width))
            else:
                cells.append(".".rjust(width))
        lines.append(str(u).rjust(width) + " " + " ".join(cells))
    return "\n".join(lines)


def edge_list_art(graph: Graph) -> str:
    """One line per vertex: ``W3 -- W1 W2`` style conflict lists."""
    vertices = sorted(graph.vertices, key=repr)
    if not vertices:
        raise ConfigurationError("cannot render an empty graph")
    lines = []
    for v in vertices:
        neighbors = sorted(graph.neighbors(v), key=repr)
        if neighbors:
            right = " ".join(f"W{u}" for u in neighbors)
        else:
            right = "(no conflicts)"
        lines.append(f"W{v} -- {right}")
    return "\n".join(lines)


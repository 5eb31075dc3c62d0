"""ASCII rendering of conflict graphs.

Small conflict graphs (one vertex per worker) are best understood
visually; this renders them as an adjacency matrix plus an edge list,
both in ascending worker order, which is what the CLI's ``placement``
command prints.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from .graph import Graph


def _rows(graph: Graph) -> np.ndarray:
    adjacency = graph.adjacency
    if not adjacency.shape[0]:
        raise ConfigurationError("cannot render an empty graph")
    return adjacency


def adjacency_art(graph: Graph) -> str:
    """An adjacency-matrix picture with worker labels.

    ``#`` marks a conflict, ``.`` no conflict, ``\\`` the diagonal.
    """
    adjacency = _rows(graph)
    n = adjacency.shape[0]
    width = len(str(n - 1))
    header = " " * (width + 1) + " ".join(
        str(v).rjust(width) for v in range(n)
    )
    lines = [header]
    for u, row in enumerate(adjacency.tolist()):
        cells = [
            "\\" if u == v else "#" if conflict else "."
            for v, conflict in enumerate(row)
        ]
        lines.append(
            str(u).rjust(width) + " "
            + " ".join(cell.rjust(width) for cell in cells)
        )
    return "\n".join(lines)


def edge_list_art(graph: Graph) -> str:
    """One line per worker: ``W3 -- W1 W2`` style conflict lists."""
    lines = []
    for v, row in enumerate(_rows(graph)):
        neighbors = np.flatnonzero(row).tolist()
        if neighbors:
            right = " ".join(f"W{u}" for u in neighbors)
        else:
            right = "(no conflicts)"
        lines.append(f"W{v} -- {right}")
    return "\n".join(lines)

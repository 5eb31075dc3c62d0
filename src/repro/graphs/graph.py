"""The conflict graph as a value: a read-only ``(n, n)`` bool adjacency.

Conflict graphs have one vertex per worker, so vertices are always the
worker ids ``0..n-1`` and the graph *is* its adjacency matrix — the
same representation the batched decoders index
(:mod:`repro.core.batch`).  :class:`Graph` only adds what a matrix
lacks as a value: validation, a plain-``bool`` equality and the edge
set as unordered pairs.
"""

from __future__ import annotations

from typing import FrozenSet

import numpy as np


class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    Built from a square, symmetric boolean adjacency with a ``False``
    diagonal (no self-loops); the matrix is copied and frozen, so a
    graph never changes after construction.
    """

    __slots__ = ("_adjacency",)

    def __init__(self, adjacency) -> None:
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(
                f"adjacency must be a square matrix, got shape {adj.shape}"
            )
        if adj.diagonal().any():
            first = int(np.flatnonzero(adj.diagonal())[0])
            raise ValueError(f"self-loops are not allowed (vertex {first})")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric (undirected graph)")
        adj.flags.writeable = False
        self._adjacency = adj

    @property
    def adjacency(self) -> np.ndarray:
        """The read-only ``(n, n)`` bool adjacency matrix."""
        return self._adjacency

    @property
    def edges(self) -> FrozenSet[FrozenSet[int]]:
        """Edges as frozensets, suitable for set-algebra comparisons."""
        rows, cols = np.nonzero(np.triu(self._adjacency))
        return frozenset(
            frozenset((u, v)) for u, v in zip(rows.tolist(), cols.tolist())
        )

    def number_of_edges(self) -> int:
        """Edge count (undirected, no duplicates)."""
        return int(np.count_nonzero(self._adjacency)) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return bool(np.array_equal(self._adjacency, other._adjacency))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(|V|={self._adjacency.shape[0]}, "
            f"|E|={self.number_of_edges()})"
        )

"""Conflict graphs (Sec. V-A).

Two workers *conflict* when their partition sets intersect: their summed
gradient payloads cannot be added without double-counting some
partition.  The conflict graph ``G = (W, E)`` has one vertex per worker
and an edge per conflicting pair; decoding a set ``W'`` of available
workers is exactly a maximum-independent-set problem on ``G[W']``.

:func:`conflict_graph` is the ground truth for every placement.  The
one closed form beside it is Theorem 1's circulant
(:func:`repro.core.batch.circulant_adjacency`), which the CR and HR
decoders walk and the tests hold to this builder.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from .batch import partition_matrix
from .placement import Placement


def conflict_graph(placement: Placement) -> Graph:
    """Ground-truth conflict graph from partition-set intersections:
    ``P @ Pᵀ`` over the storage indicator ``P``, diagonal cleared."""
    storage = partition_matrix(placement).astype(np.float32)
    adjacency = (storage @ storage.T) > 0
    np.fill_diagonal(adjacency, False)
    return Graph(adjacency)


def edge_subset(inner: Graph, outer: Graph) -> bool:
    """True iff ``E(inner) ⊆ E(outer)`` (Theorems 4 and 7 orderings)."""
    return not (inner.adjacency & ~outer.adjacency).any()

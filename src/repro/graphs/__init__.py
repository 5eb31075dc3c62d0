"""Graph substrate: lightweight graphs, circulant constructors, MIS solvers."""

from .graph import Graph
from .circulant import circulant_graph, circular_distance, is_circulant_with_offsets
from .render import adjacency_art, edge_list_art
from .independent_set import (
    all_maximum_independent_sets,
    greedy_independent_set,
    independence_number,
    maximum_independent_set,
)

__all__ = [
    "Graph",
    "circulant_graph",
    "circular_distance",
    "is_circulant_with_offsets",
    "greedy_independent_set",
    "maximum_independent_set",
    "independence_number",
    "all_maximum_independent_sets",
    "adjacency_art",
    "edge_list_art",
]

"""Graph substrate: the conflict-graph value type and the exact MIS solver."""

from .graph import Graph
from .circulant import circular_distance
from .render import adjacency_art, edge_list_art
from .independent_set import all_maximum_independent_sets, independence_number

__all__ = [
    "Graph",
    "circular_distance",
    "independence_number",
    "all_maximum_independent_sets",
    "adjacency_art",
    "edge_list_art",
]

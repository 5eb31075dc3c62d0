"""The paper's primary contribution: IS-GC placements, conflict graphs,
decoders, the summation code, and the theoretical bounds."""

from .placement import Placement
from .explicit import ExplicitPlacement
from .fractional import FractionalRepetition
from .cyclic import CyclicRepetition
from .hybrid import HybridRepetition
from .conflict import conflict_graph, edge_subset
from .scheme import (
    PLACEMENT_REGISTRY,
    HeteroPlacement,
    make_placement,
    register_placement,
    registered_placements,
)
from .batch import (
    BatchDecodeResult,
    batched_greedy_chains,
    circulant_adjacency,
    enumerate_masks,
    masks_to_array,
    partition_matrix,
    validate_mask,
)
from .decoders import Decoder, decoder_for
from .fr_decoder import FRDecoder
from .cr_decoder import CRDecoder
from .hr_decoder import HRDecoder
from .exact_decoder import ExactDecoder
from .coding import SummationCode, coefficients, combine, verify_decode
from .hetero_placement import (
    AssignmentResult,
    heterogeneous_recovery,
    optimize_assignment,
)
from .migration import (
    MigrationPlan,
    migration_cost_seconds,
    migration_plan,
    worth_migrating,
)
from .advisor import (
    PlacementScore,
    candidate_placements,
    evaluate_placement,
    rank_placements,
    recommend_placement,
)
from .bounds import (
    DescentBound,
    alpha_lower_bound,
    alpha_upper_bound,
    hr_alpha_bounds,
    recovered_partitions_bounds,
)

__all__ = [
    "Placement",
    "ExplicitPlacement",
    "FractionalRepetition",
    "CyclicRepetition",
    "HybridRepetition",
    "conflict_graph",
    "edge_subset",
    "HeteroPlacement",
    "PLACEMENT_REGISTRY",
    "register_placement",
    "registered_placements",
    "make_placement",
    "Decoder",
    "decoder_for",
    "BatchDecodeResult",
    "batched_greedy_chains",
    "circulant_adjacency",
    "enumerate_masks",
    "masks_to_array",
    "partition_matrix",
    "validate_mask",
    "FRDecoder",
    "CRDecoder",
    "HRDecoder",
    "ExactDecoder",
    "SummationCode",
    "coefficients",
    "combine",
    "verify_decode",
    "DescentBound",
    "alpha_lower_bound",
    "alpha_upper_bound",
    "recovered_partitions_bounds",
    "hr_alpha_bounds",
    "MigrationPlan",
    "migration_plan",
    "migration_cost_seconds",
    "worth_migrating",
    "AssignmentResult",
    "heterogeneous_recovery",
    "optimize_assignment",
    "PlacementScore",
    "candidate_placements",
    "evaluate_placement",
    "rank_placements",
    "recommend_placement",
]

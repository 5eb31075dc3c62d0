"""Classic gradient coding (Tandon et al. 2017) — the GC baseline."""

from .gc_matrices import (
    cyclic_b_matrix,
    decode_vector,
    fractional_b_matrix,
    supports_full_recovery,
)
from .gc_scheme import ClassicGradientCode
from .comm_efficient import CommEfficientGC
from .approx import (
    ApproxDecodeResult,
    LeastSquaresDecoder,
    StochasticSumDecoder,
    l2_gradient_error,
)

__all__ = [
    "fractional_b_matrix",
    "cyclic_b_matrix",
    "decode_vector",
    "supports_full_recovery",
    "ClassicGradientCode",
    "ApproxDecodeResult",
    "LeastSquaresDecoder",
    "StochasticSumDecoder",
    "l2_gradient_error",
    "CommEfficientGC",
]

"""Approximate gradient coding baselines (Sec. II related work).

The paper contrasts IS-GC with *approximate* gradient codes
([5], [24]-[26]) that trade exact recovery for tolerance of any
straggler count by estimating the full gradient with some ℓ2 error.
Two representative baselines are implemented over the same summation
payloads IS-GC uses, so the comparison isolates the *decoding policy*:

* :class:`LeastSquaresDecoder` — the ℓ2-optimal linear combiner: pick
  weights ``a`` minimising ``‖Bᵀ_avail · a − 𝟙‖₂`` (with ``B`` the 0/1
  placement matrix) and output ``ĝ ≈ Σ a_i · payload_i``.  This is the
  best any fixed linear decoder can do and generalises ErasureHead-
  style decoding.
* :class:`StochasticSumDecoder` — Bitar et al.'s stochastic gradient
  coding estimator: just add every received payload and rescale by the
  expected per-partition coverage ``c·w/n``; unbiased under uniform
  availability but with per-step ℓ2 error.

Both return *estimates of the full gradient sum* (not partial sums),
plus diagnostics (`coefficient deviation`) used by the comparison
table (``repro experiment ablations``).  IS-GC instead returns an exact partial sum — the paper's
argument is that this keeps the convergence analysis clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.batch import partition_matrix
from ..core.coding import add_rows, as_block
from ..core.placement import Placement
from ..exceptions import CodingError


@dataclass(frozen=True)
class ApproxDecodeResult:
    """An approximate full-gradient estimate plus quality diagnostics.

    ``coefficient_vector`` is the effective per-partition weight vector
    ``v = Bᵀ_avail · a``; exact recovery corresponds to ``v = 𝟙`` and
    ``deviation = ‖v − 𝟙‖₂`` quantifies the decoding error *independent
    of the gradients themselves* (the quantity approximate-GC papers
    bound).
    """

    estimate: np.ndarray
    coefficient_vector: np.ndarray

    @property
    def deviation(self) -> float:
        return float(np.linalg.norm(self.coefficient_vector - 1.0))

    @property
    def is_exact(self) -> bool:
        return bool(np.allclose(self.coefficient_vector, 1.0, atol=1e-8))


class LeastSquaresDecoder:
    """ℓ2-optimal approximate decoding of summation payloads."""

    def __init__(self, placement: Placement):
        self._placement = placement
        self._b = partition_matrix(placement).astype(float)

    @property
    def placement(self) -> Placement:
        return self._placement

    def decode(
        self,
        available_workers: Iterable[int],
        payloads: np.ndarray,
    ) -> ApproxDecodeResult:
        """ℓ2-optimal estimate of the full gradient from ``W'``, given
        the ``(n, D)`` payload block."""
        rows = sorted(set(available_workers))
        if not rows:
            raise CodingError("cannot decode with zero available workers")
        block = as_block(
            payloads, self._placement.num_workers, "worker payloads"
        )
        sub = self._b[rows, :]
        ones = np.ones(self._b.shape[1])
        weights, *_ = np.linalg.lstsq(sub.T, ones, rcond=None)
        # `+ 0.0`: this sum starts from zero (see add_rows).
        estimate = add_rows(weights[:, None] * block[rows]) + 0.0
        return ApproxDecodeResult(
            estimate=estimate, coefficient_vector=sub.T @ weights
        )


class StochasticSumDecoder:
    """Stochastic-gradient-coding style rescaled sum (Bitar et al.).

    Adds every received payload; partition ``p`` is then counted once
    per received replica, so dividing by the *expected* replica count
    ``c·w/n`` yields an unbiased estimate of ``Σ_p g_p`` under uniform
    worker availability.
    """

    def __init__(self, placement: Placement):
        self._placement = placement
        self._b = partition_matrix(placement).astype(float)

    @property
    def placement(self) -> Placement:
        return self._placement

    def decode(
        self,
        available_workers: Iterable[int],
        payloads: np.ndarray,
    ) -> ApproxDecodeResult:
        """Rescaled-sum estimate of the full gradient from ``W'``, given
        the ``(n, D)`` payload block."""
        rows = sorted(set(available_workers))
        if not rows:
            raise CodingError("cannot decode with zero available workers")
        n = self._placement.num_workers
        block = as_block(payloads, n, "worker payloads")
        c = self._placement.partitions_per_worker
        scale = n / (c * len(rows))
        # `+ 0.0`: this sum starts from zero (see add_rows).
        total = add_rows(block[rows]) + 0.0
        coefficients = scale * self._b[rows, :].sum(axis=0)
        return ApproxDecodeResult(
            estimate=scale * total, coefficient_vector=coefficients
        )


def l2_gradient_error(
    result: ApproxDecodeResult,
    partition_gradients: np.ndarray,
) -> float:
    """``‖ĝ − Σ_p g_p‖₂`` for a decoded estimate on the known ``(P, D)``
    gradient block."""
    full = add_rows(np.asarray(partition_gradients, dtype=float)) + 0.0
    return float(np.linalg.norm(result.estimate - full))

"""Approximate gradient coding baselines (Sec. II related work).

The paper contrasts IS-GC with *approximate* gradient codes
([5], [24]-[26]) that trade exact recovery for tolerance of any
straggler count by estimating the full gradient with some ℓ2 error.
Two representative baselines are implemented over the same summation
payloads IS-GC uses, so the comparison isolates the *decoding policy*.
Like every scheme in :mod:`repro.training.strategies`, each is a weight
function of the survivor set ``W'``: ``weights`` gives the payload rows
and their weights ``a``, and ``decode`` adds them with
:func:`~repro.core.coding.combine`.

* :class:`LeastSquaresDecoder` — the ℓ2-optimal linear combiner: the
  ``a`` minimising ``‖Bᵀ_avail · a − 𝟙‖₂`` (with ``B`` the 0/1
  placement matrix).  This is the best any fixed linear decoder can do
  and generalises ErasureHead-style decoding.
* :class:`StochasticSumDecoder` — Bitar et al.'s stochastic gradient
  coding estimator: every received payload weighted by the inverse of
  the expected per-partition coverage ``c·w/n``; unbiased under uniform
  availability but with per-step ℓ2 error.

Both return *estimates of the full gradient sum* (not partial sums).
Their decoding error independent of the gradients themselves is
``‖v − 𝟙‖₂`` with ``v = Bᵀ_avail · a``
(:func:`~repro.core.coding.coefficients`), the quantity
approximate-GC papers bound and the comparison table reports
(``repro experiment ablations``).  IS-GC instead returns an exact
partial sum — the paper's argument is that this keeps the convergence
analysis clean.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Tuple

import numpy as np

from ..core.batch import partition_matrix, validate_mask
from ..core.coding import add_rows, as_block, combine
from ..core.placement import Placement


class _WeightedSum(abc.ABC):
    """A full-gradient estimate ``Σ_k a_k · payload_{rows[k]}`` whose
    weights subclasses derive from the survivor set."""

    def __init__(self, placement: Placement):
        self._placement = placement
        self._b = partition_matrix(placement).astype(float)

    @property
    def placement(self) -> Placement:
        return self._placement

    @abc.abstractmethod
    def weights(
        self, survivors: Iterable[int]
    ) -> Tuple[List[int], np.ndarray]:
        """(payload rows, their weights) for a checked survivor set."""

    def decode(
        self,
        available_workers: Iterable[int],
        payloads: np.ndarray,
    ) -> np.ndarray:
        """The estimate of the full gradient sum from ``W'``, given the
        ``(n, D)`` payload block.  ``W'`` is checked by
        :func:`~repro.core.batch.validate_mask`."""
        n = self._placement.num_workers
        rows, weights = self.weights(validate_mask(available_workers, n))
        return combine(as_block(payloads, n, "worker payloads"), rows, weights)


class LeastSquaresDecoder(_WeightedSum):
    """ℓ2-optimal approximate decoding of summation payloads."""

    def weights(self, survivors):
        rows = sorted(survivors)
        ones = np.ones(self._b.shape[1])
        weights, *_ = np.linalg.lstsq(self._b[rows].T, ones, rcond=None)
        return rows, weights


class StochasticSumDecoder(_WeightedSum):
    """Stochastic-gradient-coding style rescaled sum (Bitar et al.).

    Weights every received payload by ``n / (c·w)``: partition ``p`` is
    counted once per received replica, so dividing by the *expected*
    replica count ``c·w/n`` yields an unbiased estimate of ``Σ_p g_p``
    under uniform worker availability.
    """

    def weights(self, survivors):
        rows = sorted(survivors)
        n = self._placement.num_workers
        c = self._placement.partitions_per_worker
        return rows, np.full(len(rows), n / (c * len(rows)))


def l2_gradient_error(
    estimate: np.ndarray,
    partition_gradients: np.ndarray,
) -> float:
    """``‖ĝ − Σ_p g_p‖₂`` for an estimate of the full gradient sum on
    the known ``(P, D)`` gradient block."""
    full = add_rows(np.asarray(partition_gradients, dtype=float), 0.0)
    return float(np.linalg.norm(estimate - full))

"""Variance of the unbiased gradient estimator.

The paper's convergence story (Sec. VII-B, Assumption 3) runs through
the second moment of the decoded gradient: recovering more partitions
per step means averaging more terms, hence lower estimator variance,
hence faster convergence at the same learning rate — the mechanism
behind Fig. 12(b) and Fig. 13(b).

This module computes that variance *exactly* for a placement and a set
of per-partition gradients: over uniform size-``w`` availability, the
unbiased estimate is ``(n/|I|)·Σ_{p∈I} g_p`` with ``I`` the decoded
recovery set, and we enumerate (or sample) the availability subsets to
get ``E[ĝ]`` and ``tr Cov(ĝ)`` directly.  It quantifies, in one number
per ``(placement, w)``, how much IS-GC's extra recovery buys over
IS-SGD.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Mapping

import numpy as np

from ..core.batch import enumerate_masks, partition_matrix
from ..core.conflict import conflict_graph
from ..core.decoders import decoder_for
from ..core.placement import Placement
from ..exceptions import ConfigurationError
from ..graphs.independent_set import all_maximum_independent_sets


@dataclass(frozen=True)
class EstimatorMoments:
    """First and second moments of the unbiased decoded gradient."""

    mean: np.ndarray
    total_variance: float  # tr Cov(ĝ)
    bias_norm: float  # ‖E[ĝ] − Σ_p g_p‖

    @property
    def is_unbiased(self) -> bool:
        return self.bias_norm < 1e-8


def estimator_moments(
    placement: Placement,
    wait_for: int,
    partition_gradients: Mapping[int, np.ndarray],
    exact_limit: int = 50_000,
    trials: int = 4000,
    seed: int = 0,
) -> EstimatorMoments:
    """Moments of ``ĝ = (n/|I|)·Σ_{p∈I} g_p`` under uniform ``W'``.

    Exact path (``C(n, w)`` affordable): enumerate every availability
    subset *and* every maximum independent set of its induced conflict
    graph, weighting MIS choices uniformly — the fair-decoder model, in
    which the estimator is exactly unbiased for the symmetric FR/CR/HR
    placements (per-partition coefficients are equal by symmetry and
    sum to ``n``).  Monte-Carlo path otherwise, using the scheme
    decoder's own randomized tie-breaking.
    """
    n = placement.num_workers
    if not 1 <= wait_for <= n:
        raise ConfigurationError(f"invalid w = {wait_for} for n = {n}")
    missing = [p for p in range(n) if p not in partition_gradients]
    if missing:
        raise ConfigurationError(f"missing gradients for partitions {missing}")
    grads = {p: np.asarray(g, dtype=float) for p, g in partition_gradients.items()}
    # (num_partitions, d) stack so recovery indicators turn gradient
    # sums into one matrix product.
    grad_mat = np.stack([grads[p] for p in range(n)])
    full = grad_mat.sum(axis=0)
    rng = np.random.default_rng(seed)
    pmat = partition_matrix(placement)

    if comb(n, wait_for) <= exact_limit:
        # Exact path, in the batch representation: every size-w mask as
        # one row of a boolean array (combinations order — the same
        # enumeration the closed-form cross-checks use), every maximum
        # independent set of each induced subgraph as one selection
        # row, weighted uniformly within its mask.
        masks = enumerate_masks(n, wait_for)
        graph = conflict_graph(placement)
        num_subsets = masks.shape[0]
        sel_rows: List[np.ndarray] = []
        weights_list: List[float] = []
        for row in masks:
            subset = frozenset(np.flatnonzero(row).tolist())
            optima = all_maximum_independent_sets(graph, subset)
            for mis in optima:
                indicator = np.zeros(n, dtype=bool)
                indicator[[int(v) for v in mis]] = True
                sel_rows.append(indicator)
                weights_list.append(1.0 / (num_subsets * len(optima)))
        selected = np.stack(sel_rows)
        recovered = (selected.astype(np.intp) @ pmat.astype(np.intp)) > 0
        w_arr = np.asarray(weights_list)
    else:
        # Monte-Carlo path: draw every mask, then decode the whole
        # batch through the vectorized kernel at once.
        decoder = decoder_for(placement, rng=rng)
        masks = np.zeros((trials, n), dtype=bool)
        for t in range(trials):
            masks[t, rng.choice(n, size=wait_for, replace=False)] = True
        batch = decoder.decode_batch(masks)
        recovered = batch.recovered
        w_arr = np.full(recovered.shape[0], 1.0 / trials)

    num_recovered = recovered.sum(axis=1)
    stacked = (n / num_recovered)[:, None] * (recovered @ grad_mat)
    mean = (stacked * w_arr[:, None]).sum(axis=0)
    centered = stacked - mean
    total_var = float(
        ((centered * centered).sum(axis=1) * w_arr).sum()
    )
    return EstimatorMoments(
        mean=mean,
        total_variance=total_var,
        bias_norm=float(np.linalg.norm(mean - full)),
    )


"""Monte-Carlo recovery statistics (Figs. 12a, 13a).

Given a placement and its decoder, these helpers measure how many
gradients the master recovers as a function of the number of available
workers ``w``, plus the fairness diagnostics the paper's Assumption 2
relies on (every partition equally likely to appear in ``ĝ``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.batch import BatchDecodeResult
from ..core.decoders import Decoder, decoder_for
from ..core.placement import Placement
from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class RecoveryStats:
    """Recovery distribution for one (placement, w) point."""

    num_workers: int
    wait_for: int
    trials: int
    mean_recovered: float
    min_recovered: int
    max_recovered: int
    mean_fraction: float
    partition_frequency: np.ndarray  # P(partition ∈ I), shape (n,)

    def describe(self) -> str:
        """One-line human-readable summary of the stats."""
        return (
            f"w={self.wait_for}: recovered {self.mean_recovered:.2f}/"
            f"{self.num_workers} partitions on average "
            f"({100 * self.mean_fraction:.1f}%), "
            f"range [{self.min_recovered}, {self.max_recovered}]"
        )


def monte_carlo_recovery(
    placement: Placement,
    wait_for: int,
    trials: int = 2000,
    seed: int = 0,
    decoder: Decoder | None = None,
) -> RecoveryStats:
    """Sample uniformly random available sets of size ``w`` and decode.

    Models homogeneous i.i.d. stragglers: each step the ``w`` fastest
    workers are a uniform random subset.
    """
    n = placement.num_workers
    if not 1 <= wait_for <= n:
        raise ConfigurationError(f"need 1 <= w <= n, got w={wait_for}, n={n}")
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    masks = np.zeros((trials, n), dtype=bool)
    if decoder is not None:
        # The decoder owns its generator, so every mask can be drawn up
        # front (identical ``choice`` stream) and the whole batch
        # decoded through the vectorized kernels — the decoder's
        # fairness draws land in trial order either way.
        for t in range(trials):
            masks[t, rng.choice(n, size=wait_for, replace=False)] = True
        batch = decoder.decode_batch(masks)
    else:
        # Default decoder shares ``rng`` with the mask draws; the
        # historical stream interleaves choice/decode per trial, so
        # batching the masks would reorder it and change recorded
        # results (golden-pinned).  Keep the interleaved loop here.
        dec = decoder_for(placement, rng=rng)
        results = []
        for t in range(trials):
            available = rng.choice(n, size=wait_for, replace=False)
            masks[t, available] = True
            results.append(dec.decode(available.tolist()))
        batch = BatchDecodeResult.from_results(
            masks, results, placement.num_partitions
        )
    arr = batch.num_recovered
    freq = batch.recovered.sum(axis=0).astype(float)
    return RecoveryStats(
        num_workers=n,
        wait_for=wait_for,
        trials=trials,
        mean_recovered=float(arr.mean()),
        min_recovered=int(arr.min()),
        max_recovered=int(arr.max()),
        mean_fraction=float(arr.mean() / n),
        partition_frequency=freq / trials,
    )


def recovery_curve(
    placement: Placement,
    trials: int = 2000,
    seed: int = 0,
) -> Dict[int, RecoveryStats]:
    """Recovery stats for every ``w`` in ``1..n`` (a Fig. 12(a) series)."""
    return {
        w: monte_carlo_recovery(placement, w, trials=trials, seed=seed + w)
        for w in range(1, placement.num_workers + 1)
    }


def fairness_gap(stats: RecoveryStats) -> float:
    """Max deviation of per-partition inclusion probability from uniform.

    Under Assumption 2 every partition appears in ``I`` with equal
    probability; this returns ``max_p |P(p ∈ I) − mean|``, which should
    shrink as ``1/√trials``.
    """
    freq = stats.partition_frequency
    return float(np.abs(freq - freq.mean()).max())

"""Shared experiment configuration.

Defaults are scaled so the whole suite reproduces on a laptop in
minutes while preserving the paper's *shapes* (who wins, by what
factor, where crossovers fall).  Every figure runner accepts a config
object so tests can dial sizes down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class Fig11Config:
    """Fig. 11: average step time under exponential stragglers.

    Paper setting: ResNet-18/ImageNet on 24 workers, batch 64, c = 2,
    exponential delays (mean 1.5 s or 3.0 s) injected on 12 or all 24
    workers.  We reproduce the timing shape with the event simulator —
    no gradients needed, step time depends only on arrival times.
    """

    num_workers: int = 24
    partitions_per_worker: int = 2
    num_steps: int = 300
    expected_delays: Sequence[float] = (1.5, 3.0)
    num_delayed_options: Sequence[int] = (12, 24)
    wait_values: Sequence[int] = (6, 12, 18)
    # Per-copy model compute dominates on the paper's HPC (each worker
    # trains c model copies sequentially); with per-partition compute
    # above the mean injected delay, GC (c=2, wait n-1) lands *above*
    # sync-SGD exactly as the paper reports for Fig. 11(a).
    base_compute: float = 0.1
    per_partition_compute: float = 1.6
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.num_workers <= 0 or self.num_steps <= 0:
            raise ConfigurationError("num_workers and num_steps must be positive")
        for w in self.wait_values:
            if not 1 <= w <= self.num_workers:
                raise ConfigurationError(f"wait value {w} outside [1, n]")
        for d in self.num_delayed_options:
            if not 0 <= d <= self.num_workers:
                raise ConfigurationError(f"num_delayed {d} outside [0, n]")


@dataclass(frozen=True)
class Fig12Config:
    """Fig. 12: end-to-end training comparison at n = 4, c = 2.

    Paper setting: ResNet-18/CIFAR-10, batch 128, lr 0.006, n = 4,
    train to a loss threshold, sweep w ∈ {1, 2, 3, 4}; 10 trials.
    Substitution: MLP on the CIFAR-like synthetic dataset.
    """

    num_workers: int = 4
    partitions_per_worker: int = 2
    wait_values: Sequence[int] = (1, 2, 3, 4)
    # Batch 16 (vs the paper's 128) compensates for our much smaller
    # model: it keeps per-partition gradient noise high enough that the
    # recovered-gradient fraction visibly controls steps-to-threshold,
    # which is exactly the effect Fig. 12(b) measures.
    batch_size: int = 16
    learning_rate: float = 0.15
    loss_threshold: float = 0.5
    max_steps: int = 1200
    num_trials: int = 3
    dataset_samples: int = 2048
    expected_delay: float = 1.0
    num_straggling: int = 4
    recovery_trials: int = 4000
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        if self.num_trials < 1:
            # Panels (b)-(d) average over trials: none leaves them empty.
            raise ConfigurationError(
                f"num_trials must be at least 1, got {self.num_trials}"
            )
        for w in self.wait_values:
            if not 1 <= w <= self.num_workers:
                raise ConfigurationError(f"wait value {w} outside [1, n]")
        if not 0 <= self.num_straggling <= self.num_workers:
            raise ConfigurationError(
                f"num_straggling {self.num_straggling} outside [0, n]"
            )


@dataclass(frozen=True)
class Fig13Config:
    """Fig. 13: the HR trade-off, HR(8, c1, 4 - c1) with g = 2.

    Paper setting: n = 8, c = 4, g = 2, lr 0.001, batch 128, w = 2;
    sweep c1 ∈ {0, 1, 2, 3} (c1 = 3 places identically to FR).
    """

    num_workers: int = 8
    total_c: int = 4
    num_groups: int = 2
    c1_values: Sequence[int] = (0, 1, 2, 3)
    wait_for: int = 2
    # Small batches keep gradient noise high so the c1-sweep's recovery
    # differences show up in the loss curves (see Fig12Config note).
    batch_size: int = 8
    learning_rate: float = 0.2
    num_steps: int = 300
    dataset_samples: int = 2048
    recovery_trials: int = 4000
    seed: int = 2023

    def __post_init__(self) -> None:
        for c1 in self.c1_values:
            if not 0 <= c1 <= self.total_c:
                raise ConfigurationError(f"c1={c1} outside [0, c]")
        if not 1 <= self.wait_for <= self.num_workers:
            raise ConfigurationError("wait_for outside [1, n]")

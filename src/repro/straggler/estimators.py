"""Online straggler estimation.

The paper's Sec. IV leaves "how to choose ``w``" open ("we can set a
deadline … we may also choose to receive gradients from fewer workers
at the beginning …").  Related work (FlexRR [10]) detects stragglers
from observed latencies.  This module provides the observation side:

* :class:`LatencyEstimator` — per-worker exponentially-weighted moving
  averages of observed round latencies, with straggler scoring;
* :class:`EstimatingWaitPolicy` — a wait policy that uses the
  estimator to pick ``w`` each step: wait for every worker whose
  *predicted* latency is within ``slack × median``; chronically slow
  workers stop being waited for automatically.

Everything is observation-driven — no oracle access to the delay
model — so the same components would work against a real cluster.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional

from ..exceptions import ConfigurationError, SimulationError
from ..simulation.policies import WaitOutcome, WaitPolicy


class LatencyEstimator:
    """EWMA latency tracker with straggler scoring.

    ``update(worker, latency)`` after each observed arrival;
    ``estimate(worker)`` returns the current prediction (``None`` until
    first observation); ``straggler_score(worker)`` is the ratio of the
    worker's estimate to the median estimate — ≥ ``threshold`` flags a
    straggler.
    """

    def __init__(self, smoothing: float = 0.2, threshold: float = 2.0):
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        if threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must exceed 1, got {threshold}"
            )
        self._alpha = smoothing
        self._threshold = threshold
        self._estimates: Dict[int, float] = {}
        self._observations: Dict[int, int] = {}

    def update(self, worker: int, latency: float) -> None:
        """Fold one observed round latency into the EWMA."""
        if latency < 0:
            raise ConfigurationError(f"negative latency {latency}")
        if worker in self._estimates:
            old = self._estimates[worker]
            self._estimates[worker] = (
                (1 - self._alpha) * old + self._alpha * latency
            )
        else:
            self._estimates[worker] = latency
        self._observations[worker] = self._observations.get(worker, 0) + 1

    def update_round(self, arrivals: Mapping[int, float]) -> None:
        """Feed one full round of (worker → latency) observations."""
        for worker, latency in arrivals.items():
            self.update(worker, latency)

    def estimate(self, worker: int) -> Optional[float]:
        """Current latency prediction, or ``None`` before any data."""
        return self._estimates.get(worker)

    def observations(self, worker: int) -> int:
        """How many latencies have been observed for ``worker``."""
        return self._observations.get(worker, 0)

    def median_estimate(self) -> Optional[float]:
        """Median of the per-worker estimates (``None`` when empty)."""
        if not self._estimates:
            return None
        values = sorted(self._estimates.values())
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])

    def straggler_score(self, worker: int) -> Optional[float]:
        """Estimate / median; ``None`` until the worker is observed."""
        est = self.estimate(worker)
        med = self.median_estimate()
        if est is None or med is None or med == 0.0:
            return None
        return est / med

    def stragglers(self) -> FrozenSet[int]:
        """Workers currently scoring at or above the threshold."""
        flagged = set()
        for worker in self._estimates:
            score = self.straggler_score(worker)
            if score is not None and score >= self._threshold:
                flagged.add(worker)
        return frozenset(flagged)


class EstimatingWaitPolicy(WaitPolicy):
    """Adaptive policy: wait for the workers predicted to be fast.

    Each step the target count ``w`` is the number of workers whose
    estimated latency is within ``slack ×`` the median estimate,
    clamped to ``[min_wait, n]``.  Until ``warmup_rounds`` of
    observations the policy waits for everyone (it has nothing to
    ignore on).  Observed arrivals always feed back into the estimator.
    """

    def __init__(
        self,
        estimator: LatencyEstimator,
        min_wait: int = 1,
        slack: float = 1.5,
        warmup_rounds: int = 3,
    ):
        if min_wait <= 0:
            raise ConfigurationError(f"min_wait must be positive, got {min_wait}")
        if slack < 1.0:
            raise ConfigurationError(f"slack must be >= 1, got {slack}")
        if warmup_rounds < 0:
            raise ConfigurationError(
                f"warmup_rounds must be >= 0, got {warmup_rounds}"
            )
        self._estimator = estimator
        self._min_wait = min_wait
        self._slack = slack
        self._warmup = warmup_rounds
        self._rounds_seen = 0

    @property
    def estimator(self) -> LatencyEstimator:
        return self._estimator

    def _target_w(self, num_workers: int) -> int:
        median = self._estimator.median_estimate()
        if self._rounds_seen < self._warmup or median is None:
            return num_workers
        fast = 0
        for worker in range(num_workers):
            est = self._estimator.estimate(worker)
            if est is None or est <= self._slack * median:
                fast += 1
        return max(self._min_wait, min(fast, num_workers))

    def wait(self, arrivals: Mapping[int, float], step: int) -> WaitOutcome:
        ordered = self._sorted_arrivals(arrivals)
        target = self._target_w(len(ordered))
        if target > len(ordered):
            raise SimulationError(
                f"target w={target} exceeds {len(ordered)} arrivals"
            )
        outcome = self._accept_first(ordered[:target])
        # Learn from everything we saw this round, including stragglers
        # (their full latency is known once their upload lands).
        self._estimator.update_round({w: t for w, t in arrivals.items()})
        self._rounds_seen += 1
        return outcome

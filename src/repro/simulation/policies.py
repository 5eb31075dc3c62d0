"""Master wait policies.

The master decides *when to stop waiting* for coded gradients each
step.  The paper highlights that IS-GC frees this choice entirely:

* classic GC / sync-SGD must wait for a fixed count (``n - s`` resp.
  ``n``),
* IS-SGD / IS-GC wait for any ``w`` (``ray.wait(num_returns=w)``),
* a deadline policy ("we can set a deadline in each step") and an
  adaptive schedule ("receive gradients from fewer workers at the
  beginning … more afterwards") are also described in Sec. IV.

A policy consumes the full arrival-time vector for a step and returns
the accepted worker set plus the time at which the master proceeds.

**Unit convention** — policies reason entirely in *step-relative*
seconds: every arrival time is measured from the start of the current
step, and :attr:`WaitOutcome.proceed_time` is likewise relative (the
caller adds its own step start to obtain an absolute clock).  This is
what makes deadlines meaningful per step and lets one policy instance
serve every round of a run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, FrozenSet, Mapping, Tuple

from ..exceptions import ConfigurationError, SimulationError

#: the worker of a ``(time, worker)`` arrival pair.
_WORKER = itemgetter(1)


@dataclass(frozen=True)
class WaitOutcome:
    """What a wait policy decided for one step.

    ``proceed_time`` is *step-relative*: seconds after the step start
    at which the master stops waiting (see the module docstring).
    """

    accepted_workers: FrozenSet[int]
    proceed_time: float


class WaitPolicy(abc.ABC):
    """Decide which arrivals the master accepts and when it moves on."""

    @abc.abstractmethod
    def wait(self, arrivals: Mapping[int, float], step: int) -> WaitOutcome:
        """``arrivals`` maps worker → *step-relative* arrival time
        (seconds since the step start); the returned
        :attr:`WaitOutcome.proceed_time` uses the same origin."""

    def describe(self) -> str:
        """Short label for traces and reports (override for detail)."""
        return type(self).__name__

    @staticmethod
    def _sorted_arrivals(arrivals: Mapping[int, float]) -> list[Tuple[float, int]]:
        """``(time, worker)`` pairs, earliest first, ties by worker id."""
        if not arrivals:
            raise SimulationError("wait policy invoked with zero arrivals")
        return sorted(zip(arrivals.values(), arrivals))

    @staticmethod
    def _accept_first(chosen: list[Tuple[float, int]]) -> WaitOutcome:
        """Accept the sorted ``(time, worker)`` pairs ``chosen`` and
        proceed at the last of them."""
        return WaitOutcome(
            accepted_workers=frozenset(map(_WORKER, chosen)),
            proceed_time=chosen[-1][0],
        )


class WaitForK(WaitPolicy):
    """Accept the ``k`` fastest workers; proceed at the k-th arrival.

    ``k = n`` is synchronous SGD; ``k = n - c + 1`` is classic GC;
    any smaller ``k`` is the IS-SGD / IS-GC regime.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        self._k = k

    @property
    def k(self) -> int:
        return self._k

    def describe(self) -> str:
        return f"wait-for-k(k={self._k})"

    def wait(self, arrivals: Mapping[int, float], step: int) -> WaitOutcome:
        ordered = self._sorted_arrivals(arrivals)
        if len(ordered) < self._k:
            raise SimulationError(
                f"policy needs {self._k} arrivals but only "
                f"{len(ordered)} workers reported"
            )
        return self._accept_first(ordered[: self._k])


class WaitForAll(WaitForK):
    """Synchronous SGD: wait for every worker."""

    def __init__(self, num_workers: int):
        super().__init__(num_workers)


class DeadlinePolicy(WaitPolicy):
    """Accept everything that lands within ``deadline`` seconds of the
    step start and proceed at the deadline; if nobody makes it, wait
    for the first arrival (the master can never proceed empty-handed)."""

    def __init__(self, deadline: float):
        if deadline < 0:
            raise ConfigurationError(
                f"deadline must be >= 0, got {deadline}"
            )
        self._deadline = deadline

    @property
    def deadline(self) -> float:
        return self._deadline

    def describe(self) -> str:
        return f"deadline({self._deadline}s)"

    def wait(self, arrivals: Mapping[int, float], step: int) -> WaitOutcome:
        ordered = self._sorted_arrivals(arrivals)
        within = [(t, w) for t, w in ordered if t <= self._deadline]
        if not within:
            first_time, first_worker = ordered[0]
            return WaitOutcome(
                accepted_workers=frozenset({first_worker}),
                proceed_time=first_time,
            )
        # Every accepted arrival is <= deadline by construction, so the
        # master proceeds exactly at the deadline.
        return WaitOutcome(
            accepted_workers=frozenset(w for _, w in within),
            proceed_time=self._deadline,
        )


class AdaptiveWaitK(WaitPolicy):
    """``k`` as a function of the step index (Sec. IV's ramp-up idea)."""

    def __init__(self, schedule: Callable[[int], int]):
        self._schedule = schedule

    def describe(self) -> str:
        return "adaptive-k"

    def wait(self, arrivals: Mapping[int, float], step: int) -> WaitOutcome:
        k = self._schedule(step)
        if k <= 0:
            raise SimulationError(
                f"adaptive schedule produced invalid k={k} at step {step}"
            )
        return WaitForK(min(k, len(arrivals))).wait(arrivals, step)


def linear_rampup(start_k: int, end_k: int, over_steps: int) -> Callable[[int], int]:
    """A ready-made ramp: ``start_k`` → ``end_k`` linearly over
    ``over_steps`` steps, then constant ``end_k``.

    The interpolation is pure integer arithmetic
    (``start_k + (step · Δ) // over_steps``), so the schedule is exact,
    deterministic, and monotone — no float rounding (the previous
    banker's-rounding ``round()`` made step-to-step behaviour depend on
    tie-breaking) — and hits ``start_k`` at step 0 and ``end_k`` at
    ``over_steps`` exactly.
    """
    if start_k <= 0 or end_k <= 0 or over_steps <= 0:
        raise ConfigurationError(
            "start_k, end_k and over_steps must all be positive"
        )

    def schedule(step: int) -> int:
        if step >= over_steps:
            return end_k
        return start_k + (step * (end_k - start_k)) // over_steps

    return schedule

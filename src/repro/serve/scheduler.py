"""Quantum schedulers: which running job gets the next round.

The coordinator executes one *quantum* (one engine round) at a time
per scheduling decision.  A :class:`Scheduler` picks the job for each
quantum from the currently runnable set; the default
:class:`FairScheduler` implements smooth weighted round-robin (SWRR):
every decision adds each runnable job's weight to its credit, the
highest-credit job runs and pays the total weight back.  Over any
window of ``Q`` quanta a job with weight ``w_i`` receives
``Q * w_i / Σw`` quanta to within one — the classic starvation-free
fairness bound (ties break on admission order, so the schedule is a
pure function of the submission history).

Jobs may carry a :class:`SchedulingClass`, which refines the decision
in two ways without disturbing the SWRR bound *within* each tier:

* **priority tiers** — only the highest-priority runnable tier
  competes for a quantum (strict priority; lower tiers wait);
* **deadlines** — credit ties inside a tier break earliest-deadline-
  first (deadlines are in each job's own *simulated* seconds), then on
  admission order.

Default-class jobs (priority 0, no deadline) form a single tier with
no deadline ties, so the schedule — and every byte of coordinator
output — is identical to the plain SWRR behaviour.

Schedulers are pluggable (``Coordinator(scheduler=...)``); the test
suite drives the coordinator with adversarial random-order schedulers
to prove trajectories are interleaving-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

import numpy as np

from ..exceptions import ServeError

if TYPE_CHECKING:  # pragma: no cover
    from .jobs import Job


@dataclass(frozen=True)
class SchedulingClass:
    """A named (priority, weight, deadline) bundle for submissions.

    Attributes
    ----------
    name:
        Label for logs and job listings.
    priority:
        Tier index; higher tiers receive strictly all quanta while
        runnable (within a tier, SWRR fairness still holds).
    weight:
        Default SWRR weight for jobs submitted under this class (an
        explicit per-job weight overrides it).
    deadline:
        Optional target completion time in the job's own simulated
        seconds; used only to break credit ties earliest-first, so it
        shapes latency without breaking the fairness bound.
    """

    name: str = "default"
    priority: int = 0
    weight: int = 1
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ServeError(
                f"scheduling class weight must be >= 1, got {self.weight}"
            )
        check_deadline(self.deadline, "scheduling class")


def check_deadline(deadline: Optional[float], owner: str) -> None:
    """Refuse a deadline that is not a positive finite number.

    A NaN would make :func:`_deadline_key` comparisons non-total (the
    EDF tie-break would then follow iteration order), and ``inf`` is
    no deadline at all; JSON inbox files can spell both.
    """
    if deadline is not None and not (
        math.isfinite(deadline) and deadline > 0
    ):
        raise ServeError(
            f"{owner} deadline must be a positive finite number, "
            f"got {deadline}"
        )


#: the implicit class of jobs submitted without one.
DEFAULT_CLASS = SchedulingClass()


def _deadline_key(job: "Job") -> tuple:
    """Sort key: earlier deadline first, deadline-less jobs last."""
    deadline = job.deadline
    return (deadline is None, deadline if deadline is not None else 0.0)


class Scheduler(Protocol):
    """Picks the next job to receive a round quantum."""

    def pick(self, runnable: Sequence["Job"]) -> "Job":
        """Choose one job from ``runnable`` (never empty)."""
        ...


class FairScheduler:
    """Smooth weighted round-robin within the top priority tier.

    Credit state lives on the jobs themselves (``job.credit``), so
    jobs entering and leaving the running set keep their standing and
    a finished job's state needs no cleanup here.  Only the
    highest-priority runnable tier is credited — lower tiers neither
    gain nor pay credit while blocked, so their internal SWRR standing
    is frozen, not skewed, until the tier above drains.  Credit ties
    break earliest-deadline-first, then on admission order; with
    default-class jobs this is byte-for-byte the classic SWRR
    schedule.
    """

    def pick(self, runnable: Sequence["Job"]) -> "Job":
        """One SWRR decision: credit the top tier, run the richest."""
        tier_priority = max(job.priority for job in runnable)
        tier: List["Job"] = [
            job for job in runnable if job.priority == tier_priority
        ]
        total = sum(job.weight for job in tier)
        best = None
        for job in tier:
            job.credit += job.weight
            if best is None or job.credit > best.credit or (
                job.credit == best.credit
                and (_deadline_key(job), job.seq)
                < (_deadline_key(best), best.seq)
            ):
                best = job
        assert best is not None
        best.credit -= total
        return best


class RandomOrderScheduler:
    """Seeded adversarial scheduler: uniformly random runnable job.

    Exists for the determinism tests — *any* interleaving must produce
    the same per-job trajectories — and for chaos-style smoke runs.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def pick(self, runnable: Sequence["Job"]) -> "Job":
        """A uniformly random runnable job from the seeded stream."""
        return runnable[int(self._rng.integers(len(runnable)))]

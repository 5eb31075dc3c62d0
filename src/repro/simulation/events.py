"""Discrete-event primitives for the cluster simulator.

Two pieces, one ordering rule — earliest first, ties by insertion
order — which is what makes whole simulations reproducible bit-for-bit
under a fixed seed:

* :func:`arrival_race` — one synchronous round's upload race as a
  single float64 computation and a stable argsort.
  ``ClusterSimulator.run_round``, the one synchronous round, orders
  its arrivals through it.
* :class:`EventQueue` — a priority queue of timestamped events for
  open-ended pipelined simulations (the asynchronous backend's
  cross-round queue).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..exceptions import SimulationError


def arrival_race(
    workers: Sequence[int],
    start: float,
    broadcast: float,
    compute,
    straggles,
    upload: float,
) -> Dict[int, float]:
    """Step-relative upload arrivals of one synchronous round, in
    arrival order.

    Worker ``workers[i]`` finishes at
    ``(((start + broadcast) + compute) + straggles[i]) + upload``
    absolute seconds — ``compute`` is one float or an array aligned
    with ``workers`` — and the returned time is that minus ``start``.
    The operations run in that order, elementwise in float64, so every
    time is bit-identical to the scalar expression.

    The dict's iteration order is the arrival order: earliest first,
    ties broken by position in ``workers`` (a stable argsort), exactly
    the ``(time, insertion sequence)`` order of an :class:`EventQueue`
    fed in ``workers`` order.  Trace files serialise that order.
    """
    finish = (
        (start + broadcast + compute) + np.asarray(straggles, dtype=float)
    ) + upload
    order = finish.argsort(kind="stable").tolist()
    times = finish.tolist()
    if order and times[order[0]] < 0:
        # Name the first negative time in worker order, as a queue fed
        # in that order would have refused it.
        raise SimulationError(
            f"negative event time {next(t for t in times if t < 0)}"
        )
    # Python floats subtract in binary64 exactly as numpy does, so
    # each relative time is bit-identical to the array expression.
    return {workers[i]: times[i] - start for i in order}


@dataclass(frozen=True, order=False)
class Event:
    """One simulated occurrence.

    Attributes
    ----------
    time:
        Simulated-seconds timestamp.
    kind:
        Free-form tag, e.g. ``"gradient_arrival"`` or ``"deadline"``.
    worker:
        Originating worker index, or ``None`` for master-side events.
    """

    time: float
    kind: str
    worker: Optional[int] = None


class EventQueue:
    """Min-heap of :class:`Event` with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def push(self, event: Event) -> None:
        """Insert an event; rejects negative timestamps."""
        if event.time < 0:
            raise SimulationError(f"negative event time {event.time}")
        heapq.heappush(self._heap, (event.time, next(self._counter), event))

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        return heapq.heappop(self._heap)[2]

    def snapshot_events(self) -> list:
        """Queued events in pop order, non-destructively (checkpointing).

        Re-pushing the returned events into a fresh queue reproduces
        this queue's pop order exactly: the sort key is the same
        ``(time, insertion sequence)`` pair the heap orders by.
        """
        return [
            item[2]
            for item in sorted(self._heap, key=lambda item: item[:2])
        ]

    def __len__(self) -> int:
        return len(self._heap)

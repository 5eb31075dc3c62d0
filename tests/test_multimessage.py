"""Tests for multi-message partial-gradient uploads."""

import numpy as np
import pytest

from repro.core import CyclicRepetition, FractionalRepetition
from repro.exceptions import ConfigurationError, SimulationError
from repro.partial import (
    MessageArrival,
    MultiMessageRound,
    collect_by_deadline,
    collect_first_k_messages,
    recovery_vs_deadline,
)
from repro.simulation import ComputeModel, NetworkModel
from repro.straggler import NoDelay, PersistentStragglers, ShiftedExponentialDelay

IDEAL = NetworkModel(latency=0.0, bandwidth=float("inf"))


def _round(placement, delay=None):
    return MultiMessageRound(
        placement,
        compute=ComputeModel(base=0.1, per_partition=0.2),
        network=IDEAL,
        delay_model=delay or NoDelay(),
        rng=np.random.default_rng(0),
    )


class TestSimulation:
    def test_message_count(self):
        r = _round(CyclicRepetition(4, 2))
        arrivals = r.simulate(0)
        assert len(arrivals) == 8
        assert r.messages_per_round() == 8
        assert r.bytes_multiplier() == 2

    def test_arrivals_sorted(self):
        r = _round(CyclicRepetition(6, 3))
        times = [m.time for m in r.simulate(0)]
        assert times == sorted(times)

    def test_later_partitions_arrive_later_per_worker(self):
        r = _round(CyclicRepetition(4, 3))
        arrivals = r.simulate(0)
        for worker in range(4):
            mine = [m for m in arrivals if m.worker == worker]
            assert [m.time for m in mine] == sorted(m.time for m in mine)
            # Partitions appear in the placement's stored order.
            placement_order = list(CyclicRepetition(4, 3).partitions_of(worker))
            assert [m.partition for m in mine] == placement_order

    def test_first_message_beats_isgc_payload(self):
        """A worker's first partition lands before its full IS-GC
        payload would (that needs all c computations first)."""
        c = 3
        compute = ComputeModel(base=0.1, per_partition=0.2)
        r = _round(CyclicRepetition(4, c))
        first = min(m.time for m in r.simulate(0))
        isgc_time = compute.base + c * compute.per_partition
        assert first < isgc_time

    def test_rng_is_required(self):
        # No entropy-seeded fallback: every round replays.
        with pytest.raises(TypeError, match="rng"):
            MultiMessageRound(CyclicRepetition(4, 2))

    def test_straggler_shifts_whole_worker(self):
        slow = PersistentStragglers([0], ShiftedExponentialDelay(5.0, 0.0))
        r = _round(CyclicRepetition(4, 2), delay=slow)
        arrivals = r.simulate(0)
        slow_first = min(m.time for m in arrivals if m.worker == 0)
        fast_last = max(m.time for m in arrivals if m.worker != 0)
        assert slow_first > fast_last


class TestCollectors:
    ARRIVALS = [
        MessageArrival(0, 0, 0.3),
        MessageArrival(1, 1, 0.4),
        MessageArrival(0, 1, 0.6),
        MessageArrival(2, 2, 0.9),
    ]

    def test_deadline_distinct_union(self):
        recovered, t = collect_by_deadline(self.ARRIVALS, 0.7)
        assert recovered == frozenset({0, 1})
        assert t == pytest.approx(0.7)

    def test_deadline_nobody_waits_for_first(self):
        recovered, t = collect_by_deadline(self.ARRIVALS, 0.1)
        assert recovered == frozenset({0})
        assert t == pytest.approx(0.3)

    def test_deadline_validation(self):
        with pytest.raises(SimulationError):
            collect_by_deadline([], 1.0)
        with pytest.raises(ConfigurationError):
            collect_by_deadline(self.ARRIVALS, -1.0)

    def test_first_k_messages(self):
        recovered, t = collect_first_k_messages(self.ARRIVALS, 3)
        assert recovered == frozenset({0, 1})  # duplicate partition 1
        assert t == pytest.approx(0.6)

    def test_first_k_validation(self):
        with pytest.raises(ConfigurationError):
            collect_first_k_messages(self.ARRIVALS, 0)
        with pytest.raises(ConfigurationError):
            collect_first_k_messages(self.ARRIVALS, 9)


class TestRecoveryVsDeadline:
    def test_monotone_in_deadline(self):
        placement = CyclicRepetition(6, 2)
        comparisons = recovery_vs_deadline(
            placement, deadlines=(0.2, 0.5, 1.0, 3.0), trials=100,
            compute=ComputeModel(0.05, 0.1), network=IDEAL,
            delay_model=ShiftedExponentialDelay(0.0, 0.5),
        )
        mm = [c.multimessage_recovered for c in comparisons]
        gc = [c.isgc_recovered for c in comparisons]
        assert mm == sorted(mm)
        assert gc == sorted(gc)

    def test_multimessage_leads_at_tight_deadlines(self):
        """Partial work counts: before any worker finishes all c
        partitions, only multi-message has recovered anything."""
        placement = FractionalRepetition(4, 2)
        compute = ComputeModel(base=0.1, per_partition=0.4)
        # Deadline after first partitions (0.5) but before full
        # payloads (0.9).
        comparisons = recovery_vs_deadline(
            placement, deadlines=(0.6,), trials=50,
            compute=compute, network=IDEAL, delay_model=NoDelay(),
        )
        point = comparisons[0]
        assert point.multimessage_recovered > point.isgc_recovered

    def test_both_reach_full_recovery_eventually(self):
        placement = CyclicRepetition(4, 2)
        comparisons = recovery_vs_deadline(
            placement, deadlines=(100.0,), trials=20,
            compute=ComputeModel(0.05, 0.1), network=IDEAL,
            delay_model=ShiftedExponentialDelay(0.0, 0.3),
        )
        point = comparisons[0]
        assert point.multimessage_recovered == pytest.approx(4.0)
        assert point.isgc_recovered == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            recovery_vs_deadline(CyclicRepetition(4, 2), deadlines=())

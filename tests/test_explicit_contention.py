"""Tests for explicit placements and shared-link contention."""

import numpy as np
import pytest

from repro.core import (
    CyclicRepetition,
    ExactDecoder,
    ExplicitPlacement,
    SummationCode,
    combine,
    conflict_graph,
    decoder_for,
)
from repro.exceptions import ConfigurationError, PlacementError
from repro.simulation import ContendedUploadModel, fair_share_finish_times


class TestExplicitPlacement:
    def test_from_rows_matches_cr(self):
        cr = CyclicRepetition(4, 2)
        rows = [cr.partitions_of(w) for w in range(4)]
        explicit = ExplicitPlacement.from_rows(rows)
        for w in range(4):
            assert explicit.partitions_of(w) == cr.partitions_of(w)
        assert conflict_graph(explicit) == conflict_graph(cr)

    def test_exact_decoder_dispatch(self):
        placement = ExplicitPlacement.from_rows([(0, 1), (1, 2), (2, 3), (3, 0)])
        decoder = decoder_for(placement)
        assert isinstance(decoder, ExactDecoder)
        result = decoder.decode([0, 2])
        assert result.num_recovered == 4

    def test_asymmetric_design(self):
        """A hand-built placement no standard family produces: works
        with conflict graphs, decoding, and the summation code."""
        placement = ExplicitPlacement.from_rows(
            [(0, 1), (2, 3), (0, 2), (1, 3)]
        )
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(4, 3))
        code = SummationCode(placement)
        payloads = code.encode(grads)
        decision = decoder_for(placement, rng=rng).decode([0, 1])
        decoded = combine(payloads, sorted(decision.selected_workers))
        np.testing.assert_allclose(decoded, grads.sum(axis=0), atol=1e-9)

    def test_invariants_enforced(self):
        with pytest.raises(PlacementError):
            ExplicitPlacement({})
        with pytest.raises(PlacementError):
            # Mixed partition counts.
            ExplicitPlacement({0: (0,), 1: (0, 1)})
        with pytest.raises(PlacementError):
            # Partition 1 never stored (n=2 workers → 2 partitions).
            ExplicitPlacement({0: (0,), 1: (0,)})
        with pytest.raises(PlacementError):
            # Out-of-range partition index.
            ExplicitPlacement({0: (0, 5), 1: (1, 0)})


class TestFairShare:
    def test_single_flow_full_rate(self):
        assert fair_share_finish_times([0.0], [100.0], 50.0) == [2.0]

    def test_two_simultaneous_flows_halve_rate(self):
        out = fair_share_finish_times([0.0, 0.0], [100.0, 100.0], 100.0)
        assert out == [2.0, 2.0]

    def test_staggered_flows(self):
        # Flow 0 runs alone for 1s (100B done), then shares: remaining
        # 100B at 50B/s → finishes at 3.0; flow 1's 100B at 50B/s then
        # full rate after flow 0 leaves: 100 = 2s shared (100B)? flow 1
        # transfers 50B/s × 2s = 100B → also done at 3.0.
        out = fair_share_finish_times([0.0, 1.0], [200.0, 100.0], 100.0)
        assert out[0] == pytest.approx(3.0)
        assert out[1] == pytest.approx(3.0)

    def test_short_flow_exits_long_flow_speeds_up(self):
        out = fair_share_finish_times([0.0, 0.0], [50.0, 150.0], 100.0)
        # Shared until t=1 (50B each); flow 0 done; flow 1 drains the
        # remaining 100B at full rate → t=2.
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(2.0)

    def test_zero_size_finishes_at_start(self):
        out = fair_share_finish_times([3.0], [0.0], 10.0)
        assert out == [3.0]

    def test_gap_between_flows(self):
        out = fair_share_finish_times([0.0, 10.0], [10.0, 10.0], 10.0)
        assert out == [1.0, 11.0]

    def test_conservation(self):
        """Total bytes served never exceeds capacity × busy time."""
        rng = np.random.default_rng(0)
        starts = rng.uniform(0, 5, size=10).tolist()
        sizes = rng.uniform(10, 100, size=10).tolist()
        cap = 37.0
        finishes = fair_share_finish_times(starts, sizes, cap)
        busy = max(finishes) - min(starts)
        assert sum(sizes) <= cap * busy + 1e-6

    def test_finish_after_start(self):
        rng = np.random.default_rng(1)
        starts = rng.uniform(0, 5, size=8).tolist()
        sizes = rng.uniform(1, 50, size=8).tolist()
        finishes = fair_share_finish_times(starts, sizes, 11.0)
        for s, f in zip(starts, finishes):
            assert f >= s

    def test_no_stall_on_rounding_residual(self):
        """Regression: ``rate * (bytes/rate)`` can round a hair below
        ``bytes``, leaving a residual whose drain time underflows
        ``now + dt`` — the loop must still terminate."""
        out = fair_share_finish_times([0.0, 0.1], [40000.0, 40000.0], 1e9)
        assert out[0] == pytest.approx(4e-05)
        assert out[1] == pytest.approx(0.10004)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fair_share_finish_times([0.0], [1.0, 2.0], 1.0)
        with pytest.raises(ConfigurationError):
            fair_share_finish_times([0.0], [1.0], 0.0)
        with pytest.raises(ConfigurationError):
            fair_share_finish_times([-1.0], [1.0], 1.0)


class TestContendedUploadModel:
    def test_contention_slows_simultaneous_uploads(self):
        model = ContendedUploadModel(capacity_bytes_per_s=400.0)
        simultaneous = model.round_arrivals({0: 0.0, 1: 0.0}, 100)
        alone = model.round_arrivals({0: 0.0}, 100)
        assert simultaneous.arrivals[0] > alone.arrivals[0]

    def test_round_result(self):
        model = ContendedUploadModel(capacity_bytes_per_s=400.0)
        out = model.round_arrivals({0: 0.0, 1: 1.0}, 100)
        assert out.link_busy_until == max(out.arrivals.values())

    def test_contention_changes_step_time_vs_ideal(self):
        """With n workers finishing compute together, the n-th arrival
        is n× the solo transfer — contention matters for wait-all but
        barely for wait-1."""
        model = ContendedUploadModel(capacity_bytes_per_s=4e3)
        starts = {w: 0.0 for w in range(8)}
        out = model.round_arrivals(starts, 1000)  # 4000 B each
        # All drain together: everyone finishes at 8 s (fair share).
        assert max(out.arrivals.values()) == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ContendedUploadModel(0.0)
        model = ContendedUploadModel(10.0)
        from repro.exceptions import SimulationError
        with pytest.raises(SimulationError):
            model.round_arrivals({0: 0.0}, -1)

"""Tests for the approximate gradient-coding baselines."""

import numpy as np
import pytest

from repro.codes import (
    LeastSquaresDecoder,
    StochasticSumDecoder,
    l2_gradient_error,
)
from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    SummationCode,
    decoder_for,
    partition_matrix,
)
from repro.exceptions import CodingError


def _payloads(placement, seed=0, dim=6):
    rng = np.random.default_rng(seed)
    grads = {p: rng.normal(size=dim) for p in range(placement.num_workers)}
    return grads, SummationCode(placement).encode(grads)


class TestPlacementMatrix:
    def test_row_support_matches_partitions(self):
        placement = CyclicRepetition(5, 2)
        b = partition_matrix(placement)
        for worker in range(5):
            support = set(np.flatnonzero(b[worker]))
            assert support == set(placement.partitions_of(worker))

    def test_row_sums_equal_c(self):
        b = partition_matrix(FractionalRepetition(6, 3))
        np.testing.assert_allclose(b.sum(axis=1), 3.0)

    def test_column_sums_equal_c(self):
        b = partition_matrix(CyclicRepetition(6, 3))
        np.testing.assert_allclose(b.sum(axis=0), 3.0)


class TestLeastSquaresDecoder:
    def test_exact_when_full_recovery_possible(self):
        """With enough non-conflicting coverage the LS solution is exact."""
        placement = CyclicRepetition(6, 2)
        grads, payloads = _payloads(placement)
        result = LeastSquaresDecoder(placement).decode(range(6), payloads)
        assert result.is_exact
        np.testing.assert_allclose(
            result.estimate, sum(grads.values()), atol=1e-8
        )
        assert result.deviation == pytest.approx(0.0, abs=1e-8)

    def test_single_worker_estimate(self):
        placement = CyclicRepetition(4, 2)
        grads, payloads = _payloads(placement)
        result = LeastSquaresDecoder(placement).decode([0], payloads)
        assert not result.is_exact
        assert result.deviation > 0

    def test_l2_error_decreases_with_more_workers(self):
        placement = CyclicRepetition(8, 2)
        grads, payloads = _payloads(placement, seed=3)
        dec = LeastSquaresDecoder(placement)
        err_small = l2_gradient_error(dec.decode([0], payloads), grads)
        err_big = l2_gradient_error(
            dec.decode([0, 2, 4, 6], payloads), grads
        )
        assert err_big < err_small

    def test_deviation_at_least_isgc_implied(self):
        """IS-GC's decode is a feasible LS solution (0/1 weights), so the
        LS optimum's coefficient deviation can't exceed IS-GC's."""
        placement = CyclicRepetition(5, 2)
        grads, payloads = _payloads(placement, seed=4)
        available = [0, 1, 2]
        ls = LeastSquaresDecoder(placement).decode(available, payloads)
        isgc = decoder_for(placement, rng=np.random.default_rng(0)).decode(available)
        # IS-GC coefficient vector: 1 on recovered, 0 elsewhere.
        v = np.zeros(5)
        for p in isgc.recovered_partitions:
            v[p] = 1.0
        isgc_dev = float(np.linalg.norm(v - 1.0))
        assert ls.deviation <= isgc_dev + 1e-9

    def test_empty_available_raises(self):
        placement = CyclicRepetition(4, 2)
        _, payloads = _payloads(placement)
        with pytest.raises(CodingError):
            LeastSquaresDecoder(placement).decode([], payloads)

    def test_missing_payload_raises(self):
        placement = CyclicRepetition(4, 2)
        with pytest.raises(CodingError):
            LeastSquaresDecoder(placement).decode([0], {})


class TestStochasticSumDecoder:
    def test_full_availability_exact(self):
        """With every worker present each partition is covered exactly c
        times, so the rescaled sum is the exact full gradient."""
        placement = CyclicRepetition(6, 3)
        grads, payloads = _payloads(placement)
        result = StochasticSumDecoder(placement).decode(range(6), payloads)
        np.testing.assert_allclose(
            result.estimate, sum(grads.values()), atol=1e-9
        )
        assert result.is_exact

    def test_unbiased_over_uniform_availability(self):
        """E[ĝ] over uniform size-w subsets equals the full gradient."""
        placement = CyclicRepetition(6, 2)
        grads, payloads = _payloads(placement, seed=5)
        dec = StochasticSumDecoder(placement)
        rng = np.random.default_rng(0)
        w = 3
        acc = np.zeros(6)
        trials = 4000
        for _ in range(trials):
            avail = rng.choice(6, size=w, replace=False).tolist()
            acc += dec.decode(avail, payloads).estimate
        full = sum(grads.values())
        np.testing.assert_allclose(acc / trials, full, atol=0.15)

    def test_partial_availability_inexact(self):
        placement = CyclicRepetition(6, 2)
        _, payloads = _payloads(placement)
        result = StochasticSumDecoder(placement).decode([0, 1], payloads)
        assert not result.is_exact

    def test_empty_raises(self):
        placement = CyclicRepetition(4, 2)
        _, payloads = _payloads(placement)
        with pytest.raises(CodingError):
            StochasticSumDecoder(placement).decode([], payloads)


class TestComparisonWithISGC:
    def test_ls_beats_stochastic_sum_in_deviation(self):
        """The LS combiner is optimal among linear decoders, so its
        coefficient deviation is a lower bound for the rescaled sum."""
        placement = CyclicRepetition(8, 2)
        grads, payloads = _payloads(placement, seed=6)
        rng = np.random.default_rng(1)
        for _ in range(30):
            w = int(rng.integers(1, 9))
            avail = rng.choice(8, size=w, replace=False).tolist()
            ls = LeastSquaresDecoder(placement).decode(avail, payloads)
            ss = StochasticSumDecoder(placement).decode(avail, payloads)
            assert ls.deviation <= ss.deviation + 1e-9

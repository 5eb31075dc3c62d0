"""The paper's worked examples, end to end (Figs. 1-3).

These tests pin the library to the exact scenarios drawn in the paper's
introduction, with n = 4 workers and (for the coded schemes) c = 2.
Paper indices are 1-based; the library is 0-based, so W1..W4 → 0..3 and
D1..D4 → 0..3.
"""

import numpy as np
import pytest

from repro.codes import ClassicGradientCode
from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    SummationCode,
    combine,
    decoder_for,
)
from repro.exceptions import CodingError
from repro.training import ISSGDStrategy, SyncSGDStrategy


@pytest.fixture
def gradients(rng):
    return rng.normal(size=(4, 8))


@pytest.fixture
def full_sum(gradients):
    return gradients.sum(axis=0)


class TestFig1aSyncSGD:
    def test_master_needs_all_four(self, gradients, full_sum):
        strat = SyncSGDStrategy(4)
        total, recovered = strat.decode(range(4), strat.encode(gradients))
        np.testing.assert_allclose(total, full_sum)
        assert recovered == frozenset(range(4))


class TestFig1bGradientCoding:
    def test_any_three_workers_recover_g(self, gradients, full_sum):
        """s = 1: the master decodes g from any 3 of the 4 workers."""
        code = ClassicGradientCode(
            CyclicRepetition(4, 2), rng=np.random.default_rng(0)
        )
        payloads = code.encode(gradients)
        for straggler in range(4):
            survivors = [w for w in range(4) if w != straggler]
            np.testing.assert_allclose(
                code.decode(survivors, payloads), full_sum, atol=1e-6
            )

    def test_two_workers_cannot(self, gradients):
        """GC's restriction: nothing recoverable beyond c - 1 stragglers."""
        code = ClassicGradientCode(
            CyclicRepetition(4, 2), rng=np.random.default_rng(0)
        )
        payloads = code.encode(gradients)
        with pytest.raises(CodingError):
            code.decode([0, 2], payloads)


class TestFig1cIgnoreStragglerSGD:
    def test_w1_w3_recover_partial_sum(self, gradients):
        """Fig. 1(c): with W2, W4 straggling the master gets g1 + g3."""
        strat = ISSGDStrategy(4, wait_for=2)
        total, recovered = strat.decode([0, 2], strat.encode(gradients))
        np.testing.assert_allclose(total, gradients[0] + gradients[2])
        assert recovered == frozenset({0, 2})


class TestFig1dISGC:
    def test_two_workers_fully_recover_g(self, gradients, full_sum):
        """Fig. 1(d): IS-GC recovers g1+g2+g3+g4 from just W1 and W3
        (0-indexed 0 and 2) — the paper's headline example."""
        placement = CyclicRepetition(4, 2)
        code = SummationCode(placement)
        payloads = code.encode(gradients)
        decoder = decoder_for(placement, rng=np.random.default_rng(0))
        decision = decoder.decode([0, 2])
        assert decision.recovered_partitions == frozenset(range(4))
        np.testing.assert_allclose(
            combine(payloads, sorted(decision.selected_workers)), full_sum,
            atol=1e-9,
        )

    def test_beats_issgd_on_same_workers(self, gradients):
        placement = CyclicRepetition(4, 2)
        code = SummationCode(placement)
        decoder = decoder_for(placement, rng=np.random.default_rng(0))
        isgc_recovered = decoder.decode([0, 2]).recovered_partitions
        issgd = ISSGDStrategy(4, 2)
        _, issgd_recovered = issgd.decode([0, 2], issgd.encode(gradients))
        assert len(isgc_recovered) > len(issgd_recovered)


class TestFig2Placements:
    def test_fr_worker_payloads(self, gradients):
        """Fig. 2(a): W1/W2 send g1+g2; W3/W4 send g3+g4."""
        payloads = SummationCode(FractionalRepetition(4, 2)).encode(gradients)
        np.testing.assert_allclose(payloads[0], gradients[0] + gradients[1])
        np.testing.assert_allclose(payloads[1], gradients[0] + gradients[1])
        np.testing.assert_allclose(payloads[2], gradients[2] + gradients[3])
        np.testing.assert_allclose(payloads[3], gradients[2] + gradients[3])

    def test_cr_worker_payloads(self, gradients):
        """CR with summation coding: W_i sends g_i + g_{i+1 mod 4}."""
        payloads = SummationCode(CyclicRepetition(4, 2)).encode(gradients)
        for i in range(4):
            np.testing.assert_allclose(
                payloads[i], gradients[i] + gradients[(i + 1) % 4]
            )


class TestFig3DecodingOrder:
    """Sec. V-A: greedy-by-arrival is suboptimal; the conflict-graph
    decoder is not."""

    def test_w1_then_w3_w4_still_optimal(self, gradients, full_sum):
        """Arrivals W1, W3, W4 (0-indexed 0, 2, 3): a sequential greedy
        that commits to W1+W3 cannot add W4; the decoder must instead
        find the pair covering all four partitions."""
        placement = CyclicRepetition(4, 2)
        decoder = decoder_for(placement, rng=np.random.default_rng(0))
        decision = decoder.decode([0, 2, 3])
        assert decision.num_recovered == 4
        code = SummationCode(placement)
        payloads = code.encode(gradients)
        np.testing.assert_allclose(
            combine(payloads, sorted(decision.selected_workers)), full_sum,
            atol=1e-9,
        )

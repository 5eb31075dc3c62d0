"""Tests for training strategies (the scheme abstraction)."""

import numpy as np
import pytest

from repro.core import CyclicRepetition, FractionalRepetition, HybridRepetition
from repro.exceptions import CodingError, ConfigurationError
from repro.simulation import DeadlinePolicy, WaitForK
from repro.training import (
    ClassicGCStrategy,
    ISGCStrategy,
    ISSGDStrategy,
    SyncSGDStrategy,
)


def _grads(n, dim=6, seed=0):
    """The ``(n, dim)`` gradient block: row ``p`` is partition ``p``'s."""
    return np.random.default_rng(seed).normal(size=(n, dim))


class TestSyncSGD:
    def test_requires_all_workers(self):
        strat = SyncSGDStrategy(4)
        grads = _grads(4)
        payloads = strat.encode(grads)
        total, recovered = strat.decode(range(4), payloads)
        np.testing.assert_allclose(total, grads.sum(axis=0))
        assert recovered == frozenset(range(4))

    def test_partial_workers_rejected(self):
        strat = SyncSGDStrategy(4)
        with pytest.raises(ConfigurationError):
            strat.decode([0, 1, 2], strat.encode(_grads(4)))

    def test_policy_is_wait_all(self):
        strat = SyncSGDStrategy(4)
        assert isinstance(strat.policy, WaitForK)
        assert strat.policy.k == 4

    def test_payloads_are_partition_gradients(self):
        strat = SyncSGDStrategy(3)
        grads = _grads(3)
        payloads = strat.encode(grads)
        for w in range(3):
            np.testing.assert_allclose(payloads[w], grads[w])


class TestISSGD:
    def test_sums_available_only(self):
        strat = ISSGDStrategy(4, wait_for=2)
        grads = _grads(4)
        total, recovered = strat.decode([1, 3], strat.encode(grads))
        np.testing.assert_allclose(total, grads[1] + grads[3])
        assert recovered == frozenset({1, 3})

    def test_invalid_w(self):
        with pytest.raises(ConfigurationError):
            ISSGDStrategy(4, wait_for=0)
        with pytest.raises(ConfigurationError):
            ISSGDStrategy(4, wait_for=5)

    def test_custom_policy_injected(self):
        strat = ISSGDStrategy(4, wait_for=2, policy=DeadlinePolicy(1.0))
        assert isinstance(strat.policy, DeadlinePolicy)

    def test_describe(self):
        assert "is-sgd" in ISSGDStrategy(4, 2).describe()


class TestClassicGC:
    def test_waits_for_n_minus_c_plus_1(self):
        strat = ClassicGCStrategy(
            CyclicRepetition(6, 3), rng=np.random.default_rng(0)
        )
        assert strat.policy.k == 4

    def test_exact_recovery(self):
        strat = ClassicGCStrategy(
            CyclicRepetition(5, 2), rng=np.random.default_rng(1)
        )
        grads = _grads(5)
        payloads = strat.encode(grads)
        total, recovered = strat.decode([0, 2, 3, 4], payloads)
        np.testing.assert_allclose(total, grads.sum(axis=0), atol=1e-6)
        assert recovered == frozenset(range(5))

    def test_fr_variant(self):
        strat = ClassicGCStrategy(
            FractionalRepetition(6, 2), rng=np.random.default_rng(2)
        )
        grads = _grads(6)
        payloads = strat.encode(grads)
        total, _ = strat.decode([0, 2, 4, 5, 1], payloads)
        np.testing.assert_allclose(total, grads.sum(axis=0), atol=1e-6)

    def test_too_many_stragglers_fails(self):
        strat = ClassicGCStrategy(
            CyclicRepetition(5, 2), rng=np.random.default_rng(3)
        )
        payloads = strat.encode(_grads(5))
        with pytest.raises(CodingError):
            strat.decode([0, 1, 2], payloads)


class TestISGC:
    @pytest.mark.parametrize("placement", [
        FractionalRepetition(4, 2),
        CyclicRepetition(4, 2),
        HybridRepetition(8, 2, 2, 2),
    ])
    def test_decoded_sum_matches_recovered_set(self, placement):
        n = placement.num_workers
        strat = ISGCStrategy(placement, wait_for=2, rng=np.random.default_rng(0))
        grads = _grads(n)
        payloads = strat.encode(grads)
        total, recovered = strat.decode([0, n - 1], payloads)
        np.testing.assert_allclose(
            total, sum(grads[p] for p in recovered), atol=1e-9
        )

    def test_name_includes_scheme(self):
        assert ISGCStrategy(CyclicRepetition(4, 2), 2).name == "is-gc-cr"
        assert ISGCStrategy(FractionalRepetition(4, 2), 2).name == "is-gc-fr"
        assert ISGCStrategy(HybridRepetition(8, 2, 2, 2), 2).name == "is-gc-hr"

    def test_single_worker_decodes(self):
        strat = ISGCStrategy(
            CyclicRepetition(4, 2), wait_for=1, rng=np.random.default_rng(0)
        )
        grads = _grads(4)
        total, recovered = strat.decode([2], strat.encode(grads))
        assert recovered == frozenset({2, 3})
        np.testing.assert_allclose(total, grads[2] + grads[3])

    def test_invalid_w(self):
        with pytest.raises(ConfigurationError):
            ISGCStrategy(CyclicRepetition(4, 2), wait_for=9)

    def test_full_availability_full_recovery(self):
        strat = ISGCStrategy(
            CyclicRepetition(6, 2), wait_for=6, rng=np.random.default_rng(0)
        )
        grads = _grads(6)
        total, recovered = strat.decode(range(6), strat.encode(grads))
        assert recovered == frozenset(range(6))
        np.testing.assert_allclose(total, grads.sum(axis=0), atol=1e-9)

    def test_recovers_more_than_issgd_with_same_workers(self):
        """The paper's headline: same available workers, more gradients."""
        n = 4
        grads = _grads(n)
        isgc = ISGCStrategy(
            FractionalRepetition(n, 2), wait_for=2,
            rng=np.random.default_rng(0),
        )
        issgd = ISSGDStrategy(n, wait_for=2)
        available = [0, 2]  # different FR groups
        _, rec_gc = isgc.decode(available, isgc.encode(grads))
        _, rec_sgd = issgd.decode(available, issgd.encode(grads))
        assert len(rec_gc) == 4 > len(rec_sgd) == 2

"""Tests for training strategies (the scheme abstraction)."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    ClassicGradientCode,
    LeastSquaresDecoder,
    StochasticSumDecoder,
)
from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    HybridRepetition,
    coefficients,
    partition_matrix,
)
from repro.exceptions import CodingError, ConfigurationError, DecodeError
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


#: Every decode entry that takes a survivor set: the four strategies,
#: classic GC's code and the two approximate decoders, each over six
#: workers.
DECODERS = {
    "gc-code": lambda: ClassicGradientCode(
        CyclicRepetition(6, 2), rng=np.random.default_rng(0)
    ),
    "sync-sgd": lambda: SyncSGDStrategy(6),
    "is-sgd": lambda: ISSGDStrategy(6, wait_for=2),
    "gc": lambda: ClassicGCStrategy(
        CyclicRepetition(6, 2), rng=np.random.default_rng(0)
    ),
    "is-gc": lambda: ISGCStrategy(
        CyclicRepetition(6, 2), 2, rng=np.random.default_rng(0)
    ),
    "least-squares": lambda: LeastSquaresDecoder(CyclicRepetition(6, 2)),
    "stochastic-sum": lambda: StochasticSumDecoder(CyclicRepetition(6, 2)),
}


class TestSurvivorSetsAreChecked:
    """One survivor check per decode, with ``validate_mask``'s rules:
    a malformed set never reaches the weights."""

    @pytest.mark.parametrize("name", sorted(DECODERS))
    @pytest.mark.parametrize("survivors, message", [
        ([0, 1, 2, 3, 4, 5, 0], "duplicate available workers: \\[0\\]"),
        ([-1, 0, 1, 2, 3, 4], "out of range .*\\[-1\\]"),
        ([0, 1, 2, 3, 4, 6], "out of range .*\\[6\\]"),
        ([True, 1, 2, 3, 4, 5], "must be integer ids"),
        ([], "zero available workers"),
    ], ids=["duplicate", "negative", "out-of-range", "bool", "empty"])
    def test_malformed_survivor_sets_raise(self, name, survivors, message):
        decoder = DECODERS[name]()
        payloads = _grads(6)
        with pytest.raises(DecodeError, match=message):
            decoder.decode(survivors, payloads)

    def test_is_gc_checks_once(self, monkeypatch):
        """IS-GC's decoder runs the check; the strategy does not repeat it."""
        import repro.core.decoders as decoders
        import repro.training.strategies as strategies

        calls = []
        check = decoders.validate_mask

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(decoders, "validate_mask", counted)
        monkeypatch.setattr(strategies, "validate_mask", counted)
        DECODERS["is-gc"]().decode([0, 2], _grads(6))
        assert len(calls) == 1

    @pytest.mark.parametrize("entry", [
        "code.can_decode", "code.decode_vector", "strategy.decode_vector",
    ])
    @pytest.mark.parametrize("survivors, message", [
        ([-1, 0, 1, 2, 3], "out of range .*\\[-1\\]"),
        ([0, 1, 2, 3, 4, 4], "duplicate available workers: \\[4\\]"),
        ([0, 1, 2, 3, 6], "out of range .*\\[6\\]"),
        ([True, 2, 3, 4, 5], "must be integer ids"),
    ], ids=["negative", "duplicate", "out-of-range", "bool"])
    def test_classic_gc_entries_check_survivors(
        self, entry, survivors, message
    ):
        """Classic GC's public survivor-set entries refuse what decode
        refuses (a ``-1`` would otherwise index worker n−1's B row)."""
        owner, method = entry.split(".")
        obj = DECODERS["gc-code" if owner == "code" else "gc"]()
        with pytest.raises(DecodeError, match=message):
            getattr(obj, method)(survivors)

    @pytest.mark.parametrize("name", ["gc-code", "gc"])
    def test_classic_gc_checks_once(self, monkeypatch, name):
        """Classic GC's decode runs the check once, not again inside
        its solve or memo."""
        import repro.codes.gc_scheme as gc_scheme
        import repro.training.strategies as strategies

        calls = []
        check = gc_scheme.validate_mask

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(gc_scheme, "validate_mask", counted)
        monkeypatch.setattr(strategies, "validate_mask", counted)
        DECODERS[name]().decode(range(5), _grads(6))
        assert len(calls) == 1


def _coefficient_matrix(strategy):
    if isinstance(strategy, ClassicGCStrategy):
        return strategy.code.b_matrix
    return partition_matrix(strategy.placement)


class TestCoefficientVector:
    """``v = B[rows]ᵀa`` of each scheme's weights on every survivor set:
    the 0/1 indicator of the recovered set wherever the update divides
    by ``len(recovered)``, and 𝟙 for classic GC's exact sum."""

    @pytest.mark.parametrize("placement", [
        CyclicRepetition(8, 3), FractionalRepetition(8, 2),
    ], ids=repr)
    def test_on_every_survivor_set(self, placement):
        n = placement.num_workers
        partial = [
            ISGCStrategy(placement, 1, rng=np.random.default_rng(0)),
            ISSGDStrategy(n, wait_for=1),
        ]
        gc = ClassicGCStrategy(placement, rng=np.random.default_rng(0))
        decodable = 0
        for size in range(1, n + 1):
            for survivors in combinations(range(n), size):
                for strategy in partial:
                    rows, weights, recovered = strategy.weights(survivors)
                    v = coefficients(
                        _coefficient_matrix(strategy), rows, weights
                    )
                    indicator = np.zeros(n)
                    indicator[sorted(recovered)] = 1.0
                    np.testing.assert_array_equal(v, indicator)
                try:
                    rows, weights, recovered = gc.weights(survivors)
                except CodingError:
                    continue
                decodable += 1
                assert recovered == frozenset(range(n))
                np.testing.assert_allclose(
                    coefficients(gc.code.b_matrix, rows, weights), 1.0,
                    rtol=0, atol=1e-9,
                )
        assert decodable > 0
        sync = SyncSGDStrategy(n)
        rows, weights, recovered = sync.weights(frozenset(range(n)))
        assert recovered == frozenset(range(n))
        np.testing.assert_array_equal(
            coefficients(_coefficient_matrix(sync), rows, weights), np.ones(n)
        )

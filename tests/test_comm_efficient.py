"""Tests for communication-efficient GC and its IS extension."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes.comm_efficient import CommEfficientGC
from repro.core import CyclicRepetition, FractionalRepetition
from repro.exceptions import CodingError


def _grads(n, dim=11, seed=0):
    """The ``(n, dim)`` gradient block: row ``p`` is partition ``p``'s."""
    return np.random.default_rng(seed).normal(size=(n, dim))


@pytest.fixture
def code():
    # n=8 workers, c=4 per group, k=2 blocks → tolerate 2 stragglers
    # per group at half the upload size.
    return CommEfficientGC(FractionalRepetition(8, 4), blocks=2)


class TestConstruction:
    def test_requires_fr(self):
        with pytest.raises(CodingError, match="FR"):
            CommEfficientGC(CyclicRepetition(8, 4), blocks=2)

    def test_blocks_bounds(self):
        placement = FractionalRepetition(8, 4)
        with pytest.raises(CodingError):
            CommEfficientGC(placement, blocks=0)
        with pytest.raises(CodingError):
            CommEfficientGC(placement, blocks=5)

    def test_straggler_tolerance(self, code):
        assert code.max_stragglers_per_group == 2

    def test_payload_size(self, code):
        assert code.payload_elements(10) == 5
        assert code.payload_elements(11) == 6  # ceil


class TestEncoding:
    def test_payload_shorter_than_gradient(self, code):
        dim = 11
        payloads = code.encode(_grads(8, dim))
        for payload in payloads:
            assert payload.size == code.payload_elements(dim) < dim

    def test_same_group_different_payloads(self, code):
        payloads = code.encode(_grads(8))
        assert not np.allclose(payloads[0], payloads[1])

    def test_missing_gradient_raises(self, code):
        with pytest.raises(CodingError, match="partition gradients"):
            code.encode(np.zeros((1, 4)))


class TestSynchronousDecode:
    def test_exact_recovery_any_k_per_group(self, code):
        dim = 11
        grads = _grads(8, dim)
        payloads = code.encode(grads)
        full = grads.sum(axis=0)
        # Any 2 survivors in each group suffice.
        for g1 in combinations(range(4), 2):
            for g2 in combinations(range(4, 8), 2):
                survivors = list(g1) + list(g2)
                decoded = code.decode(survivors, payloads, dim)
                np.testing.assert_allclose(decoded, full, atol=1e-8)

    def test_full_availability(self, code):
        dim = 7
        grads = _grads(8, dim)
        payloads = code.encode(grads)
        np.testing.assert_allclose(
            code.decode(range(8), payloads, dim), grads.sum(axis=0),
            atol=1e-8,
        )

    def test_group_below_k_fails(self, code):
        dim = 5
        payloads = code.encode(_grads(8, dim))
        # Group 1 has only one survivor.
        with pytest.raises(CodingError, match="full recovery"):
            code.decode([0, 1, 4], payloads, dim)

    def test_k_equals_c_needs_everyone_in_group(self):
        code = CommEfficientGC(FractionalRepetition(4, 2), blocks=2)
        dim = 6
        grads = _grads(4, dim)
        payloads = code.encode(grads)
        np.testing.assert_allclose(
            code.decode(range(4), payloads, dim), grads.sum(axis=0),
            atol=1e-8,
        )
        with pytest.raises(CodingError):
            code.decode([0, 2, 3], payloads, dim)

    def test_k_one_is_plain_fr(self):
        """k = 1: each worker sends (a scalar multiple of) the group sum;
        one survivor per group suffices — classic FR behaviour."""
        code = CommEfficientGC(FractionalRepetition(4, 2), blocks=1)
        dim = 6
        grads = _grads(4, dim)
        payloads = code.encode(grads)
        decoded = code.decode([0, 2], payloads, dim)
        np.testing.assert_allclose(decoded, grads.sum(axis=0), atol=1e-8)


class TestIgnoreStragglerExtension:
    def test_partial_recovery_per_group(self, code):
        dim = 9
        grads = _grads(8, dim)
        payloads = code.encode(grads)
        # Group 0 has 2 survivors (decodable); group 1 has 1 (lost).
        total, recovered = code.decode_partial([0, 3, 5], payloads, dim)
        assert recovered == frozenset(range(4))
        expected = sum(grads[p] for p in range(4))
        np.testing.assert_allclose(total, expected, atol=1e-8)

    def test_nothing_recoverable_raises(self, code):
        dim = 5
        payloads = code.encode(_grads(8, dim))
        with pytest.raises(CodingError, match="no group"):
            code.decode_partial([0, 4], payloads, dim)

    def test_empty_available_raises(self, code):
        with pytest.raises(CodingError):
            code.decode_partial([], np.zeros((8, 2)), 4)

    def test_missing_payload_raises(self, code):
        with pytest.raises(CodingError, match="payloads"):
            code.decode_partial([0, 1], np.zeros((1, 3)), 5)

    def test_recovery_monotone_in_survivors(self, code):
        dim = 9
        grads = _grads(8, dim)
        payloads = code.encode(grads)
        _, rec_small = code.decode_partial([0, 1], payloads, dim)
        _, rec_big = code.decode_partial([0, 1, 4, 5], payloads, dim)
        assert rec_small < rec_big

    def test_communication_vs_tolerance_tradeoff(self):
        """Higher k → smaller uploads but fewer tolerable stragglers."""
        placement = FractionalRepetition(8, 4)
        dim = 100
        sizes = []
        tolerances = []
        for k in (1, 2, 4):
            code = CommEfficientGC(placement, blocks=k)
            sizes.append(code.payload_elements(dim))
            tolerances.append(code.max_stragglers_per_group)
        assert sizes == sorted(sizes, reverse=True)
        assert tolerances == sorted(tolerances, reverse=True)

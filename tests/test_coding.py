"""Tests for the IS-GC summation code (Sec. IV)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    SummationCode,
    combine,
    decoder_for,
    verify_decode,
)
from repro.exceptions import CodingError
from repro.training import ISGCStrategy


def _gradients(n, dim, seed=0):
    """The ``(n, dim)`` gradient block: row ``p`` is partition ``p``'s."""
    return np.random.default_rng(seed).normal(size=(n, dim))


class TestEncode:
    def test_worker_payload_is_sum_of_its_partitions(self):
        pl = CyclicRepetition(4, 2)
        code = SummationCode(pl)
        grads = _gradients(4, 5)
        payloads = code.encode(grads)
        for w in range(4):
            expected = sum(grads[p] for p in pl.partitions_of(w))
            np.testing.assert_allclose(payloads[w], expected)

    def test_missing_partition_raises(self):
        code = SummationCode(CyclicRepetition(4, 2))
        with pytest.raises(CodingError, match="partition"):
            code.encode(np.zeros((1, 3)))

    def test_encode_does_not_mutate_inputs(self):
        pl = CyclicRepetition(3, 2)
        grads = _gradients(3, 4)
        originals = grads.copy()
        SummationCode(pl).encode(grads)
        np.testing.assert_array_equal(grads, originals)

    def test_fr_group_members_send_identical_payloads(self):
        pl = FractionalRepetition(6, 3)
        payloads = SummationCode(pl).encode(_gradients(6, 4))
        np.testing.assert_allclose(payloads[0], payloads[1])
        np.testing.assert_allclose(payloads[1], payloads[2])
        assert not np.allclose(payloads[0], payloads[3])


class TestDecode:
    def test_decoded_sum_matches_recovered_partitions(self):
        pl = CyclicRepetition(5, 2)
        code = SummationCode(pl)
        grads = _gradients(5, 7)
        payloads = code.encode(grads)
        decoder = decoder_for(pl, rng=np.random.default_rng(0))
        decision = decoder.decode([0, 2, 4])
        decoded = combine(payloads, sorted(decision.selected_workers))
        assert verify_decode(pl, decision, grads, decoded)

    def test_full_availability_recovers_full_sum(self):
        pl = CyclicRepetition(6, 2)
        code = SummationCode(pl)
        grads = _gradients(6, 3)
        payloads = code.encode(grads)
        decision = decoder_for(pl, rng=np.random.default_rng(1)).decode(range(6))
        decoded = combine(payloads, sorted(decision.selected_workers))
        np.testing.assert_allclose(
            decoded, sum(grads[p] for p in range(6)), atol=1e-9
        )

    def test_missing_payload_raises(self):
        strategy = ISGCStrategy(
            CyclicRepetition(4, 2), 2, rng=np.random.default_rng(0)
        )
        with pytest.raises(CodingError, match="payloads"):
            strategy.decode([0, 2], np.zeros((1, 3)))

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_decode_equals_partition_sum(self, n, c, seed):
        c = min(c, n)
        pl = CyclicRepetition(n, c)
        code = SummationCode(pl)
        rng = np.random.default_rng(seed)
        grads = rng.normal(size=(n, 3))
        payloads = code.encode(grads)
        w = int(rng.integers(1, n + 1))
        avail = rng.choice(n, size=w, replace=False).tolist()
        decision = decoder_for(pl, rng=rng).decode(avail)
        decoded = combine(payloads, sorted(decision.selected_workers))
        expected = sum(grads[p] for p in decision.recovered_partitions)
        np.testing.assert_allclose(decoded, expected, atol=1e-9)


class TestHelpers:
    def test_verify_decode_detects_corruption(self):
        pl = CyclicRepetition(4, 2)
        code = SummationCode(pl)
        grads = _gradients(4, 3)
        payloads = code.encode(grads)
        decision = decoder_for(pl, rng=np.random.default_rng(0)).decode([0, 2])
        decoded = combine(payloads, sorted(decision.selected_workers)) + 0.5
        assert not verify_decode(pl, decision, grads, decoded)

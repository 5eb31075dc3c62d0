"""Tests for the classic gradient-coding baseline (Tandon et al.)."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    ClassicGradientCode,
    cyclic_b_matrix,
    decode_vector,
    fractional_b_matrix,
    supports_full_recovery,
)
from repro.core import CyclicRepetition, FractionalRepetition, HybridRepetition
from repro.exceptions import CodingError


class TestFractionalBMatrix:
    def test_shape_and_support(self):
        b = fractional_b_matrix(6, 2)
        assert b.shape == (6, 6)
        for worker in range(6):
            group = worker // 2
            support = set(np.flatnonzero(b[worker]))
            assert support == {2 * group, 2 * group + 1}

    def test_invalid_params(self):
        with pytest.raises(CodingError):
            fractional_b_matrix(5, 2)
        with pytest.raises(CodingError):
            fractional_b_matrix(4, 0)

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 2), (6, 3), (8, 4)])
    def test_tolerates_c_minus_1_stragglers(self, n, c):
        b = fractional_b_matrix(n, c)
        s = c - 1
        for survivors in combinations(range(n), n - s):
            assert supports_full_recovery(b, list(survivors)), survivors


class TestCyclicBMatrix:
    def test_identity_when_c_one(self):
        np.testing.assert_array_equal(cyclic_b_matrix(5, 1), np.eye(5))

    def test_cyclic_support(self):
        n, c = 7, 3
        b = cyclic_b_matrix(n, c, rng=np.random.default_rng(0))
        for i in range(n):
            support = set(np.flatnonzero(b[i]))
            assert support <= {(i + r) % n for r in range(c)}
            assert b[i, i] == pytest.approx(1.0)

    @pytest.mark.parametrize("n,c", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4)])
    def test_tolerates_c_minus_1_stragglers(self, n, c):
        b = cyclic_b_matrix(n, c, rng=np.random.default_rng(1))
        s = c - 1
        for survivors in combinations(range(n), n - s):
            assert supports_full_recovery(b, list(survivors)), survivors

    def test_fails_beyond_c_minus_1_stragglers(self):
        """The restriction IS-GC removes: with s = c stragglers the
        all-ones vector escapes the row span almost surely."""
        n, c = 6, 2
        b = cyclic_b_matrix(n, c, rng=np.random.default_rng(2))
        failures = 0
        for survivors in combinations(range(n), n - c):
            if not supports_full_recovery(b, list(survivors)):
                failures += 1
        assert failures > 0

    def test_invalid_params(self):
        with pytest.raises(CodingError):
            cyclic_b_matrix(4, 5)


class TestDecodeVector:
    def test_reconstructs_ones(self):
        b = cyclic_b_matrix(6, 2, rng=np.random.default_rng(3))
        rows = [0, 2, 3, 4, 5]
        a = decode_vector(b, rows)
        np.testing.assert_allclose(b[rows].T @ a, np.ones(6), atol=1e-6)

    def test_empty_survivors(self):
        with pytest.raises(CodingError):
            decode_vector(np.eye(4), [])

    def test_undecodable_raises(self):
        b = np.eye(4)  # c=1: any missing worker is unrecoverable
        with pytest.raises(CodingError, match="cannot tolerate"):
            decode_vector(b, [0, 1, 2])


class TestIllConditionedDraw:
    """A legal straggler pattern must decode whatever the matrix draw:
    this seed's ``B`` has entries ~1.7e4 and genuine singular values
    ~5e-11 of the largest, which a 1e-10 cut-off used to truncate."""

    SPEC = dict(
        name="ill-conditioned-gc", scheme="gc", num_workers=12,
        partitions_per_worker=3, wait_for=9, max_steps=11, seed=386141098,
    )

    def test_every_two_straggler_pattern_decodes(self):
        from repro import ExperimentSpec, build_engine

        b = build_engine(ExperimentSpec(**self.SPEC)).strategy.code.b_matrix
        assert np.abs(b).max() > 1e4  # still the ill-conditioned draw
        for stragglers in combinations(range(12), 2):
            rows = [w for w in range(12) if w not in stragglers]
            a = decode_vector(b, rows)
            np.testing.assert_allclose(b[rows].T @ a, np.ones(12), atol=1e-6)

    def test_spec_trains(self):
        from repro import ExperimentSpec, run_spec

        summary = run_spec(ExperimentSpec(**self.SPEC))
        assert summary.num_steps == 11
        assert summary.avg_recovery_fraction == 1.0


class TestClassicGradientCode:
    def _grads(self, n, dim=4, seed=0):
        rng = np.random.default_rng(seed)
        return {p: rng.normal(size=dim) for p in range(n)}

    @pytest.mark.parametrize("placement", [
        FractionalRepetition(6, 2),
        CyclicRepetition(6, 2),
        CyclicRepetition(7, 3),
    ])
    def test_exact_recovery_from_any_allowed_survivor_set(self, placement):
        code = ClassicGradientCode(placement, rng=np.random.default_rng(0))
        n = placement.num_workers
        grads = self._grads(n)
        payloads = code.encode(grads)
        expected = sum(grads[p] for p in range(n))
        for survivors in combinations(range(n), code.required_workers):
            decoded = code.decode(list(survivors), payloads)
            np.testing.assert_allclose(decoded, expected, atol=1e-6)

    def test_more_than_required_survivors_also_fine(self):
        placement = CyclicRepetition(6, 3)
        code = ClassicGradientCode(placement, rng=np.random.default_rng(1))
        grads = self._grads(6)
        payloads = code.encode(grads)
        decoded = code.decode(range(6), payloads)
        np.testing.assert_allclose(
            decoded, sum(grads[p] for p in range(6)), atol=1e-6
        )

    def test_too_few_survivors_raises(self):
        placement = CyclicRepetition(6, 2)
        code = ClassicGradientCode(placement, rng=np.random.default_rng(2))
        grads = self._grads(6)
        payloads = code.encode(grads)
        assert not code.can_decode([0, 1])
        with pytest.raises(CodingError):
            code.decode([0, 1], payloads)

    def test_max_stragglers_and_required_workers(self):
        code = ClassicGradientCode(
            CyclicRepetition(8, 3), rng=np.random.default_rng(0)
        )
        assert code.max_stragglers == 2
        assert code.required_workers == 6

    def test_hr_placement_rejected(self):
        with pytest.raises(CodingError, match="FR and CR"):
            ClassicGradientCode(HybridRepetition(8, 2, 2, 2))

    def test_missing_payload_raises(self):
        placement = CyclicRepetition(4, 2)
        code = ClassicGradientCode(placement, rng=np.random.default_rng(0))
        with pytest.raises(CodingError, match="payloads"):
            code.decode([0, 1, 2], {0: np.zeros(2)})

    def test_b_matrix_copy(self):
        code = ClassicGradientCode(
            CyclicRepetition(4, 2), rng=np.random.default_rng(0)
        )
        b = code.b_matrix
        b[:] = 0.0
        assert code.b_matrix.any()

    def test_paper_fig1b_structure(self):
        """Fig. 1(b): n=4, c=2 CR code — master decodes g from any 3."""
        placement = CyclicRepetition(4, 2)
        code = ClassicGradientCode(placement, rng=np.random.default_rng(5))
        grads = self._grads(4)
        payloads = code.encode(grads)
        g = sum(grads[p] for p in range(4))
        for straggler in range(4):
            survivors = [w for w in range(4) if w != straggler]
            np.testing.assert_allclose(
                code.decode(survivors, payloads), g, atol=1e-6
            )

"""Tests for loss functions and their analytic gradients."""

import numpy as np
import pytest

from repro.exceptions import TrainingError
from repro.training import BinaryCrossEntropy, MeanSquaredError, SoftmaxCrossEntropy


def numeric_grad(fn, pred, eps=1e-6):
    grad = np.zeros_like(pred, dtype=float)
    it = np.nditer(pred, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = pred.astype(float).copy()
        bumped[idx] += eps
        hi = fn(bumped)
        bumped[idx] -= 2 * eps
        lo = fn(bumped)
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestMSE:
    def test_zero_at_perfect_prediction(self):
        pred = np.array([1.0, 2.0])
        assert MeanSquaredError.value(pred, pred) == 0.0

    def test_known_value(self):
        assert MeanSquaredError.value(
            np.array([1.0, 3.0]), np.array([0.0, 0.0])
        ) == pytest.approx(0.5 * (1 + 9) / 2)

    def test_gradient_matches_numeric(self, rng):
        pred = rng.normal(size=8)
        target = rng.normal(size=8)
        analytic = MeanSquaredError.value_and_grad(pred, target)[1]
        numeric = numeric_grad(lambda p: MeanSquaredError.value(p, target), pred)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_batch_mismatch(self):
        with pytest.raises(TrainingError):
            MeanSquaredError.value(np.zeros(3), np.zeros(4))

    def test_empty_batch(self):
        with pytest.raises(TrainingError):
            MeanSquaredError.value(np.zeros(0), np.zeros(0))


class TestBinaryCrossEntropy:
    def test_confident_correct_is_small(self):
        scores = np.array([10.0, -10.0])
        targets = np.array([1, 0])
        assert BinaryCrossEntropy.value(scores, targets) < 1e-3

    def test_confident_wrong_is_large(self):
        scores = np.array([10.0])
        targets = np.array([0])
        assert BinaryCrossEntropy.value(scores, targets) > 5.0

    def test_zero_scores_give_log2(self):
        scores = np.zeros(4)
        targets = np.array([0, 1, 0, 1])
        assert BinaryCrossEntropy.value(scores, targets) == pytest.approx(np.log(2))

    def test_numerically_stable_at_extremes(self):
        scores = np.array([1000.0, -1000.0])
        targets = np.array([0, 1])
        val = BinaryCrossEntropy.value(scores, targets)
        assert np.isfinite(val)
        grad = BinaryCrossEntropy.value_and_grad(scores, targets)[1]
        assert np.isfinite(grad).all()

    def test_gradient_matches_numeric(self, rng):
        scores = rng.normal(size=8)
        targets = rng.integers(2, size=8)
        analytic = BinaryCrossEntropy.value_and_grad(scores, targets)[1]
        numeric = numeric_grad(
            lambda s: BinaryCrossEntropy.value(s, targets), scores
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((4, 5))
        targets = np.array([0, 1, 2, 3])
        assert SoftmaxCrossEntropy.value(logits, targets) == pytest.approx(np.log(5))

    def test_confident_correct_small(self):
        logits = np.array([[20.0, 0.0, 0.0]])
        assert SoftmaxCrossEntropy.value(logits, np.array([0])) < 1e-6

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(6, 4))
        targets = rng.integers(4, size=6)
        shifted = logits + 100.0
        assert SoftmaxCrossEntropy.value(logits, targets) == pytest.approx(
            SoftmaxCrossEntropy.value(shifted, targets)
        )

    def test_stable_at_large_logits(self):
        logits = np.array([[1e4, -1e4, 0.0]])
        val = SoftmaxCrossEntropy.value(logits, np.array([1]))
        assert np.isfinite(val)

    def test_gradient_matches_numeric(self, rng):
        logits = rng.normal(size=(5, 3))
        targets = rng.integers(3, size=5)
        analytic = SoftmaxCrossEntropy.value_and_grad(logits, targets)[1]
        numeric = numeric_grad(
            lambda z: SoftmaxCrossEntropy.value(z, targets), logits
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(5, 3))
        targets = rng.integers(3, size=5)
        grad = SoftmaxCrossEntropy.value_and_grad(logits, targets)[1]
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "loss, pred, target",
    [
        (MeanSquaredError, (3, 8), lambda rng: rng.normal(size=(3, 8))),
        (BinaryCrossEntropy, (3, 8), lambda rng: rng.integers(2, size=(3, 8))),
        (SoftmaxCrossEntropy, (3, 8, 4), lambda rng: rng.integers(4, size=(3, 8))),
    ],
)
def test_value_and_grad_values_are_value(loss, pred, target, rng):
    # Models train on value_and_grad and evaluate on value: the two must
    # agree to the bit, stacked batches included.
    pred, target = rng.normal(size=pred), target(rng)
    np.testing.assert_array_equal(
        loss.value_and_grad(pred, target)[0], loss.value(pred, target)
    )

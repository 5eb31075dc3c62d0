"""Loss functions with analytic gradients.

Each loss exposes ``value(pred, y)`` and ``value_and_grad(pred, y)``
(the same values plus the gradient w.r.t. the prediction, computed
from one shared forward pass), letting models chain their own backward
pass.  All values are means over the batch, matching the optimizer's
"gradient of the average loss" convention.

Inputs may carry leading stack axes — ``(..., b)`` predictions,
``(..., b, k)`` logits, ``(..., b)`` targets: every reduction runs over
the batch axis alone, so a stacked call returns one value per stacked
batch, bit-equal to the unstacked call on that batch.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TrainingError


def _check_batch(pred: np.ndarray, target: np.ndarray, axis: int = -1) -> None:
    """``pred``'s batch axis must match ``target``'s and be non-empty."""
    if pred.shape[axis] != target.shape[-1]:
        raise TrainingError(
            f"prediction/target batch mismatch: {pred.shape[axis]} vs "
            f"{target.shape[-1]}"
        )
    if pred.shape[axis] == 0:
        raise TrainingError("empty batch")


def _batch_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the last (batch) axis: ``ndarray.mean``'s own sum and
    division, without its Python-level wrapper."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


class MeanSquaredError:
    """``0.5 · mean((pred - y)²)`` — the 0.5 makes the gradient clean."""

    @staticmethod
    def value(pred: np.ndarray, target: np.ndarray):
        _check_batch(pred, target)
        diff = pred - target
        return 0.5 * _batch_mean(diff * diff)

    @staticmethod
    def value_and_grad(pred: np.ndarray, target: np.ndarray):
        _check_batch(pred, target)
        diff = pred - target
        return 0.5 * _batch_mean(diff * diff), diff / pred.shape[-1]


class BinaryCrossEntropy:
    """Logistic loss on raw scores (sigmoid applied internally).

    Targets are 0/1; uses the numerically stable log-sum-exp form
    ``log(1 + exp(-s·t̃))`` with ``t̃ = 2t - 1``.
    """

    @staticmethod
    def _margin(scores: np.ndarray, target: np.ndarray):
        """``(t̃, s·t̃)``."""
        _check_batch(scores, target)
        signed = np.where(target > 0.5, 1.0, -1.0)
        return signed, scores * signed

    @classmethod
    def value(cls, scores: np.ndarray, target: np.ndarray):
        # log(1 + exp(-m)) computed stably.
        return _batch_mean(np.logaddexp(0.0, -cls._margin(scores, target)[1]))

    @classmethod
    def value_and_grad(cls, scores: np.ndarray, target: np.ndarray):
        signed, margin = cls._margin(scores, target)
        sigma = 1.0 / (1.0 + np.exp(margin))
        return (
            _batch_mean(np.logaddexp(0.0, -margin)),
            (-signed * sigma) / scores.shape[-1],
        )


class SoftmaxCrossEntropy:
    """Multi-class cross entropy on raw logits with integer targets."""

    @staticmethod
    def _probabilities(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    @classmethod
    def _rows(cls, logits: np.ndarray, target: np.ndarray):
        """Probabilities as ``(rows, k)`` plus each row's (row, class)
        index pair, whatever the leading stack axes."""
        _check_batch(logits, target, axis=-2)
        probs = cls._probabilities(logits).reshape(-1, logits.shape[-1])
        return probs, (np.arange(probs.shape[0]), target.astype(int).ravel())

    @staticmethod
    def _mean_nll(probs, picked, target: np.ndarray):
        likelihood = np.clip(probs[picked], 1e-12, None)
        return -_batch_mean(np.log(likelihood.reshape(target.shape)))

    @classmethod
    def value(cls, logits: np.ndarray, target: np.ndarray):
        return cls._mean_nll(*cls._rows(logits, target), target)

    @classmethod
    def value_and_grad(cls, logits: np.ndarray, target: np.ndarray):
        probs, picked = cls._rows(logits, target)
        values = cls._mean_nll(probs, picked, target)
        probs[picked] -= 1.0
        return values, (probs / logits.shape[-2]).reshape(logits.shape)

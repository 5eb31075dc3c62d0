"""NumPy models with flat-parameter interfaces.

Every model exposes

* ``num_parameters`` and ``get_parameters() / set_parameters(vec)``
  over a single flat ``float64`` vector — the unit the coded-gradient
  pipeline ships around;
* ``stacked_loss_and_gradient(x, y, parameters=None)`` — mean losses
  ``(G,)`` and flat gradients ``(G, D)`` of ``G`` equally sized batches
  in one call, at the current parameters, at one shared ``(D,)`` vector
  or at one ``(G, D)`` row per batch.  This is *the* implementation of
  each model: row ``g`` is bit-equal to evaluating batch ``g`` alone
  (every matrix product is one BLAS call per stacked batch on the same
  operand layout, every reduction runs over the batch axis only);
* ``loss_and_gradient(x, y)`` — its ``G = 1`` case; ``gradient``
  picks one half, and ``loss`` runs the forward pass alone
  (``stacked_loss``).

Gradients are analytic (no autograd) and are validated against finite
differences in the tests.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from ..exceptions import TrainingError
from .losses import BinaryCrossEntropy, MeanSquaredError, SoftmaxCrossEntropy


class Model(abc.ABC):
    """Base class for flat-parameter models.

    A subclass defines the stacked form; the single-batch methods are
    its ``G = 1`` case.
    """

    @property
    @abc.abstractmethod
    def num_parameters(self) -> int:
        ...

    @abc.abstractmethod
    def get_parameters(self) -> np.ndarray:
        """Copy of the flat parameter vector."""

    @abc.abstractmethod
    def set_parameters(self, flat: np.ndarray) -> None:
        """Install a flat parameter vector."""

    def loss_and_gradient(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Mean batch loss and its flat gradient."""
        losses, grads = self.stacked_loss_and_gradient(
            np.asarray(x)[None], np.asarray(y)[None]
        )
        return float(losses[0]), grads[0]

    @abc.abstractmethod
    def stacked_loss_and_gradient(
        self,
        x: np.ndarray,
        y: np.ndarray,
        parameters: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Losses ``(G,)`` and flat gradients ``(G, D)`` of ``G`` batches.

        ``x`` is ``(G, b, d)``, ``y`` is ``(G, b)``; ``parameters`` is
        ``None`` (the model's current vector), one shared ``(D,)``
        vector or one ``(G, D)`` row per batch.  The model's own
        parameters are left as they were.
        """

    def stacked_loss(
        self,
        x: np.ndarray,
        y: np.ndarray,
        parameters: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Losses ``(G,)`` alone — bit-equal to the first half of
        :meth:`stacked_loss_and_gradient`, which is also the default;
        the vectorised models skip the backward pass."""
        return self.stacked_loss_and_gradient(x, y, parameters)[0]

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean batch loss at the current parameters."""
        return float(
            self.stacked_loss(np.asarray(x)[None], np.asarray(y)[None])[0]
        )

    def gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat gradient of the mean batch loss."""
        return self.loss_and_gradient(x, y)[1]


def _stacked_batches(x, y) -> Tuple[np.ndarray, np.ndarray]:
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 3 or y.shape[:1] != x.shape[:1]:
        raise TrainingError(
            "stacked batches must be (G, b, d) features with (G, b) "
            f"targets, got shapes {x.shape} and {y.shape}"
        )
    return x, y


class _FlatModel(Model):
    """A model stored as its flat vector; tensors are views of it."""

    def __init__(self, flat: np.ndarray):
        self._flat = flat

    @property
    def num_parameters(self) -> int:
        return self._flat.size

    def get_parameters(self) -> np.ndarray:
        return self._flat.copy()

    def set_parameters(self, flat: np.ndarray) -> None:
        """Install a flat parameter vector."""
        arr = np.asarray(flat, dtype=float).ravel()
        if arr.size != self.num_parameters:
            raise TrainingError(
                f"parameter vector of size {arr.size} does not match "
                f"model size {self.num_parameters}"
            )
        self._flat = arr.copy()

    def _parameter_rows(
        self, parameters: Optional[np.ndarray], num_batches: int
    ) -> np.ndarray:
        """``parameters`` as ``(1, D)`` (shared; ``None`` is the current
        vector) or ``(G, D)`` rows."""
        if parameters is None:
            return self._flat[None]
        rows = np.asarray(parameters, dtype=float)
        size = self.num_parameters
        if rows.shape == (size,):
            return rows[None]
        if rows.shape != (num_batches, size):
            raise TrainingError(
                f"parameters of shape {rows.shape} fit neither one shared "
                f"({size},) vector nor one row per batch "
                f"({num_batches}, {size})"
            )
        return rows


class _AffineModel(_FlatModel):
    """``score = Xw + b`` under the subclass's loss on the scores."""

    _loss: type

    def __init__(self, num_features: int, seed: int = 0):
        if num_features <= 0:
            raise TrainingError(
                f"num_features must be positive, got {num_features}"
            )
        rng = np.random.default_rng(seed)
        weights = rng.normal(scale=0.01, size=num_features)
        super().__init__(np.concatenate([weights, [0.0]]))
        self._d = num_features

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Raw scores ``Xw + b``."""
        return x @ self._flat[: self._d] + self._flat[self._d]

    def _stacked_scores(self, x, parameters):
        rows = self._parameter_rows(parameters, x.shape[0])
        d = self._d
        return (x @ rows[:, :d, None])[..., 0] + rows[:, d, None]

    def stacked_loss(self, x, y, parameters=None):
        x, y = _stacked_batches(x, y)
        return self._loss.value(self._stacked_scores(x, parameters), y)

    def stacked_loss_and_gradient(self, x, y, parameters=None):
        x, y = _stacked_batches(x, y)
        s = self._stacked_scores(x, parameters)
        losses, ds = self._loss.value_and_grad(s, y)
        grad_w = (x.transpose(0, 2, 1) @ ds[..., None])[..., 0]
        grad_b = ds.sum(axis=1, keepdims=True)
        return losses, np.concatenate([grad_w, grad_b], axis=1)


class LinearRegressionModel(_AffineModel):
    """``pred = Xw + b`` under mean-squared error."""

    _loss = MeanSquaredError

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Real-valued predictions ``Xw + b``."""
        return self.scores(x)


class LogisticRegressionModel(_AffineModel):
    """Binary logistic regression on raw scores."""

    _loss = BinaryCrossEntropy

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.scores(x) > 0).astype(np.int64)


class SoftmaxRegressionModel(_FlatModel):
    """Multinomial logistic regression (linear softmax classifier)."""

    def __init__(self, num_features: int, num_classes: int, seed: int = 0):
        if num_features <= 0 or num_classes < 2:
            raise TrainingError(
                "need num_features > 0 and num_classes >= 2, got "
                f"{num_features}, {num_classes}"
            )
        rng = np.random.default_rng(seed)
        weights = rng.normal(scale=0.01, size=(num_features, num_classes))
        super().__init__(
            np.concatenate([weights.ravel(), np.zeros(num_classes)])
        )
        self._d = num_features
        self._k = num_classes

    def _tensors(self, rows: np.ndarray):
        """``(w, b)`` views of ``(R, D)`` parameter rows, batch-shaped."""
        split = self._d * self._k
        return (
            rows[:, :split].reshape(-1, self._d, self._k),
            rows[:, None, split:],
        )

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class scores."""
        w, b = self._tensors(self._flat[None])
        return x @ w[0] + b[0, 0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.logits(x).argmax(axis=1)

    def _stacked_logits(self, x, parameters):
        w, b = self._tensors(self._parameter_rows(parameters, x.shape[0]))
        return x @ w + b

    def stacked_loss(self, x, y, parameters=None):
        x, y = _stacked_batches(x, y)
        z = self._stacked_logits(x, parameters)
        return SoftmaxCrossEntropy.value(z, y)

    def stacked_loss_and_gradient(self, x, y, parameters=None):
        x, y = _stacked_batches(x, y)
        losses, dz = SoftmaxCrossEntropy.value_and_grad(
            self._stacked_logits(x, parameters), y
        )
        grad_w = x.transpose(0, 2, 1) @ dz
        return losses, np.concatenate(
            [grad_w.reshape(len(x), -1), dz.sum(axis=1)], axis=1
        )


class MLPClassifier(_FlatModel):
    """One-hidden-layer ReLU network with a softmax head.

    The non-convex stand-in for the paper's ResNet-18: small enough for
    simulation-speed steps, expressive enough that recovered-gradient
    fraction visibly controls convergence speed.
    """

    def __init__(
        self,
        num_features: int,
        hidden_units: int,
        num_classes: int,
        seed: int = 0,
    ):
        if num_features <= 0 or hidden_units <= 0 or num_classes < 2:
            raise TrainingError(
                "need num_features > 0, hidden_units > 0, num_classes >= 2; "
                f"got {num_features}, {hidden_units}, {num_classes}"
            )
        rng = np.random.default_rng(seed)
        w1 = rng.normal(
            scale=np.sqrt(2.0 / num_features), size=(num_features, hidden_units)
        )
        w2 = rng.normal(
            scale=np.sqrt(2.0 / hidden_units), size=(hidden_units, num_classes)
        )
        super().__init__(np.concatenate([
            w1.ravel(), np.zeros(hidden_units),
            w2.ravel(), np.zeros(num_classes),
        ]))
        self._shapes = (w1.shape, w2.shape)
        self._cuts = tuple(
            np.cumsum([w1.size, hidden_units, w2.size]).tolist()
        )

    def _tensors(self, rows: np.ndarray):
        """``(w1, b1, w2, b2)`` views of ``(R, D)`` parameter rows."""
        (d, h), (_, k) = self._shapes
        cuts = self._cuts
        return (
            rows[:, : cuts[0]].reshape(-1, d, h),
            rows[:, None, cuts[0]:cuts[1]],
            rows[:, cuts[1]:cuts[2]].reshape(-1, h, k),
            rows[:, None, cuts[2]:],
        )

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class scores."""
        w1, b1, w2, b2 = self._tensors(self._flat[None])
        hidden = np.maximum(x @ w1[0] + b1[0, 0], 0.0)
        return hidden @ w2[0] + b2[0, 0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.logits(x).argmax(axis=1)

    def _stacked_forward(self, x, parameters):
        """``(w2, pre-activations, hidden, logits)`` of stacked batches."""
        w1, b1, w2, b2 = self._tensors(
            self._parameter_rows(parameters, x.shape[0])
        )
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        return w2, pre, hidden, hidden @ w2 + b2

    def stacked_loss(self, x, y, parameters=None):
        x, y = _stacked_batches(x, y)
        z = self._stacked_forward(x, parameters)[3]
        return SoftmaxCrossEntropy.value(z, y)

    def stacked_loss_and_gradient(self, x, y, parameters=None):
        x, y = _stacked_batches(x, y)
        w2, pre, hidden, z = self._stacked_forward(x, parameters)
        losses, dz = SoftmaxCrossEntropy.value_and_grad(z, y)
        grad_w2 = hidden.transpose(0, 2, 1) @ dz
        dpre = (dz @ w2.transpose(0, 2, 1)) * (pre > 0)
        grad_w1 = x.transpose(0, 2, 1) @ dpre
        stack = len(x)
        return losses, np.concatenate(
            [
                grad_w1.reshape(stack, -1), dpre.sum(axis=1),
                grad_w2.reshape(stack, -1), dz.sum(axis=1),
            ],
            axis=1,
        )

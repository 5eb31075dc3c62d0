"""A small convolutional classifier in NumPy.

The closest laptop-scale stand-in for the paper's ResNet-18: one
im2col-based convolution, ReLU, 2×2 max-pool, and a softmax head.
Slower per step than the MLP (which the experiment defaults use) but
structurally a real vision model — useful when the substitution
fidelity matters more than wall-clock.

Input convention: flat feature vectors of length ``H·W·C_in`` (the
:func:`~repro.training.datasets.make_cifar_like` layout), reshaped
internally to ``(batch, H, W, C_in)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import TrainingError
from .losses import SoftmaxCrossEntropy
from .models import Model


def _im2col(images: np.ndarray, k: int) -> np.ndarray:
    """Extract all k×k patches: (B, H, W, C) → (B, H', W', k·k·C)
    with H' = H−k+1 (valid padding)."""
    b, h, w, c = images.shape
    out_h, out_w = h - k + 1, w - k + 1
    strides = images.strides
    patches = np.lib.stride_tricks.as_strided(
        images,
        shape=(b, out_h, out_w, k, k, c),
        strides=(strides[0], strides[1], strides[2],
                 strides[1], strides[2], strides[3]),
        writeable=False,
    )
    return patches.reshape(b, out_h, out_w, k * k * c)


class Conv2DClassifier(Model):
    """conv(k×k) → ReLU → maxpool(2×2) → dense → softmax."""

    def __init__(
        self,
        side: int,
        in_channels: int,
        num_filters: int,
        num_classes: int,
        kernel: int = 3,
        seed: int = 0,
    ):
        if side < kernel + 1:
            raise TrainingError(
                f"side={side} too small for kernel={kernel} plus pooling"
            )
        if in_channels <= 0 or num_filters <= 0 or num_classes < 2:
            raise TrainingError(
                "need in_channels > 0, num_filters > 0, num_classes >= 2"
            )
        rng = np.random.default_rng(seed)
        self._side = side
        self._cin = in_channels
        self._k = kernel
        self._f = num_filters
        self._classes = num_classes
        self._conv_h = side - kernel + 1
        self._pool_h = self._conv_h // 2
        if self._pool_h == 0:
            raise TrainingError("feature map vanished after pooling")
        fan_in = kernel * kernel * in_channels
        self._w_conv = rng.normal(
            scale=np.sqrt(2.0 / fan_in), size=(fan_in, num_filters)
        )
        self._b_conv = np.zeros(num_filters)
        dense_in = self._pool_h * self._pool_h * num_filters
        self._w_fc = rng.normal(
            scale=np.sqrt(2.0 / dense_in), size=(dense_in, num_classes)
        )
        self._b_fc = np.zeros(num_classes)
        self._shapes = [
            self._w_conv.shape, self._b_conv.shape,
            self._w_fc.shape, self._b_fc.shape,
        ]

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return sum(int(np.prod(s)) for s in self._shapes)

    def get_parameters(self) -> np.ndarray:
        return np.concatenate([
            self._w_conv.ravel(), self._b_conv,
            self._w_fc.ravel(), self._b_fc,
        ])

    def set_parameters(self, flat: np.ndarray) -> None:
        """Install a flat parameter vector."""
        arr = self._validate_flat(flat)
        offset = 0
        tensors = []
        for shape in self._shapes:
            size = int(np.prod(shape))
            tensors.append(arr[offset:offset + size].reshape(shape).copy())
            offset += size
        self._w_conv, self._b_conv, self._w_fc, self._b_fc = tensors

    # ------------------------------------------------------------------
    def _forward(self, x_flat: np.ndarray):
        b = x_flat.shape[0]
        images = x_flat.reshape(b, self._side, self._side, self._cin)
        cols = _im2col(images, self._k)  # (B, H', W', fan_in)
        pre = cols @ self._w_conv + self._b_conv  # (B, H', W', F)
        act = np.maximum(pre, 0.0)
        # 2×2 max pooling (truncate odd edges).
        ph = self._pool_h
        trimmed = act[:, : 2 * ph, : 2 * ph, :]
        windows = trimmed.reshape(b, ph, 2, ph, 2, self._f)
        pooled = windows.max(axis=(2, 4))  # (B, ph, ph, F)
        flat = pooled.reshape(b, -1)
        logits = flat @ self._w_fc + self._b_fc
        cache = (cols, pre, trimmed, windows, pooled, flat)
        return logits, cache

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class scores for a batch of flat images."""
        return self._forward(x)[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.logits(x).argmax(axis=1)

    def loss_and_gradient(self, x, y) -> Tuple[float, np.ndarray]:
        logits, cache = self._forward(x)
        cols, pre, trimmed, windows, pooled, flat = cache
        loss, dlogits = SoftmaxCrossEntropy.value_and_grad(logits, y)

        grad_w_fc = flat.T @ dlogits
        grad_b_fc = dlogits.sum(axis=0)
        dflat = dlogits @ self._w_fc.T
        dpooled = dflat.reshape(pooled.shape)

        # Max-pool backward: route gradient to each window's argmax.
        # windows axes: (B, ph, 2, ph, 2, F) — group the two window
        # axes together before taking/scattering the argmax.
        b = x.shape[0]
        ph, f = self._pool_h, self._f
        grouped = windows.transpose(0, 1, 3, 2, 4, 5).reshape(b, ph, ph, 4, f)
        argmax = grouped.argmax(axis=3)  # (B, ph, ph, F)
        dgrouped = np.zeros_like(grouped)
        bi, hi, wi, fi = np.meshgrid(
            np.arange(b), np.arange(ph), np.arange(ph), np.arange(f),
            indexing="ij",
        )
        dgrouped[bi, hi, wi, argmax, fi] = dpooled
        dtrimmed = (
            dgrouped.reshape(b, ph, ph, 2, 2, f)
            .transpose(0, 1, 3, 2, 4, 5)
            .reshape(b, 2 * ph, 2 * ph, f)
        )

        dact = np.zeros_like(pre)
        dact[:, : 2 * ph, : 2 * ph, :] = dtrimmed
        dpre = dact * (pre > 0)

        cols_2d = cols.reshape(-1, cols.shape[-1])
        dpre_2d = dpre.reshape(-1, self._f)
        grad_w_conv = cols_2d.T @ dpre_2d
        grad_b_conv = dpre_2d.sum(axis=0)

        grad = np.concatenate([
            grad_w_conv.ravel(), grad_b_conv,
            grad_w_fc.ravel(), grad_b_fc,
        ])
        return loss, grad

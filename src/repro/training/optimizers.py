"""Optimizers and learning-rate schedules.

Matches the paper's setting (``torch.optim.SGD``): plain SGD with
optional momentum and weight decay, operating on flat parameter
vectors.  Schedules are plain callables ``step -> lr`` so experiments
can sweep them declaratively.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ConfigurationError

LRSchedule = Callable[[int], float]


def constant_lr(lr: float) -> LRSchedule:
    """A constant learning rate (the paper's setting)."""
    if lr <= 0:
        raise ConfigurationError(f"learning rate must be positive, got {lr}")
    return lambda step: lr


class SGD:
    """Stochastic gradient descent over a flat parameter vector."""

    def __init__(
        self,
        learning_rate: float | LRSchedule,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if callable(learning_rate):
            self._schedule = learning_rate
        else:
            self._schedule = constant_lr(float(learning_rate))
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(
                f"momentum must be in [0, 1), got {momentum}"
            )
        if weight_decay < 0.0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {weight_decay}"
            )
        self._momentum = momentum
        self._weight_decay = weight_decay
        self._velocity: np.ndarray | None = None
        self._step = 0

    @property
    def step_count(self) -> int:
        return self._step

    def current_lr(self) -> float:
        """Learning rate the next update will use."""
        return self._schedule(self._step)

    def update(self, params: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Return the new parameter vector; does not mutate inputs."""
        params = np.asarray(params, dtype=float)
        gradient = np.asarray(gradient, dtype=float)
        if params.shape != gradient.shape:
            raise ConfigurationError(
                f"shape mismatch: params {params.shape} vs gradient "
                f"{gradient.shape}"
            )
        if self._weight_decay:
            gradient = gradient + self._weight_decay * params
        lr = self._schedule(self._step)
        if self._momentum:
            if self._velocity is None:
                self._velocity = np.zeros_like(params)
            self._velocity = self._momentum * self._velocity + gradient
            direction = self._velocity
        else:
            direction = gradient
        self._step += 1
        return params - lr * direction

    def reset(self) -> None:
        """Clear momentum state and the step counter."""
        self._velocity = None
        self._step = 0

    def snapshot_state(self) -> dict:
        """JSON-safe mutable state (checkpointing)."""
        return {
            "step": self._step,
            "velocity": (
                None if self._velocity is None
                else [float(v) for v in self._velocity]
            ),
        }

    def restore_state(self, state) -> None:
        """Restore state captured by :meth:`snapshot_state`."""
        self._step = int(state["step"])
        velocity = state["velocity"]
        self._velocity = (
            None if velocity is None else np.asarray(velocity, dtype=float)
        )

"""Typed messages for the actor runtime.

The paper's implementation runs on Ray: a master actor broadcasts
parameters, worker actors push coded gradients, and ``ray.wait()``
returns the ``w`` fastest.  This package reproduces that substrate as a
deterministic simulated actor system; these are the wire messages.

Payloads are plain ``numpy`` arrays; messages are frozen dataclasses so
the runtime can log and replay them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Message:
    """Base class: every message knows its sender and send time."""

    sender: str
    send_time: float


@dataclass(frozen=True)
class ParameterBroadcast(Message):
    """Master → workers: parameters for step ``step``."""

    step: int = 0
    parameters: Optional[np.ndarray] = field(default=None, compare=False)


@dataclass(frozen=True)
class GradientUpload(Message):
    """Worker → master: one coded gradient for step ``step``."""

    step: int = 0
    worker: int = 0
    payload: Optional[np.ndarray] = field(default=None, compare=False)


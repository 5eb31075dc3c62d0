"""Straggler delay models and trace record/replay."""

from .models import (
    BernoulliStraggler,
    BurstyDelay,
    DiurnalDelay,
    DelayModel,
    ExponentialDelay,
    MixtureDelay,
    NoDelay,
    ParetoDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
)
from .traces import DelayTrace, TraceReplayModel
from .failures import (
    CompositeFailures,
    FailureModel,
    NoFailures,
    PermanentCrashes,
    TransientDropouts,
)

__all__ = [
    "DelayModel",
    "NoDelay",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "ParetoDelay",
    "BernoulliStraggler",
    "PersistentStragglers",
    "MixtureDelay",
    "DiurnalDelay",
    "BurstyDelay",
    "DelayTrace",
    "TraceReplayModel",
    "FailureModel",
    "NoFailures",
    "PermanentCrashes",
    "TransientDropouts",
    "CompositeFailures",
]

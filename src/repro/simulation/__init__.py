"""Discrete-event cluster simulation: events, network, wait policies."""

from .events import Event, EventQueue
from .network import IDEAL_NETWORK, NetworkModel
from .policies import (
    AdaptiveWaitK,
    DeadlinePolicy,
    WaitForAll,
    WaitForK,
    WaitOutcome,
    WaitPolicy,
    linear_rampup,
)
from .cluster import ClusterSimulator, ComputeModel, RoundResult
from .contention import (
    ContendedRound,
    ContendedUploadModel,
    fair_share_finish_times,
)
from .heterogeneous import (
    HeterogeneousComputeModel,
)

__all__ = [
    "Event",
    "EventQueue",
    "NetworkModel",
    "IDEAL_NETWORK",
    "WaitPolicy",
    "WaitForK",
    "WaitForAll",
    "DeadlinePolicy",
    "AdaptiveWaitK",
    "WaitOutcome",
    "linear_rampup",
    "ClusterSimulator",
    "ComputeModel",
    "RoundResult",
    "HeterogeneousComputeModel",
    "fair_share_finish_times",
    "ContendedUploadModel",
    "ContendedRound",
]

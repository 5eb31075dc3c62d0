"""Actor runtime: the Ray-like substrate the paper's implementation used."""

from .messages import GradientUpload, Message, ParameterBroadcast, StopTraining
from .actors import MasterActor, RoundGradients, WorkerActor

__all__ = [
    "Message",
    "ParameterBroadcast",
    "GradientUpload",
    "StopTraining",
    "MasterActor",
    "RoundGradients",
    "WorkerActor",
]

"""Actor runtime: the Ray-like substrate the paper's implementation used."""

from .messages import GradientUpload, Message, ParameterBroadcast
from .actors import MasterActor, RoundGradients, WorkerActor

__all__ = [
    "Message",
    "ParameterBroadcast",
    "GradientUpload",
    "MasterActor",
    "RoundGradients",
    "WorkerActor",
]

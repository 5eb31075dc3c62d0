"""Master and worker actors.

These mirror the paper's Ray implementation (Sec. VIII-A) one-to-one:

* each :class:`WorkerActor` owns its dataset partitions and per-
  partition seeded batch streams, takes its partitions' gradients at
  the broadcast parameters, *encodes* them with the strategy's code,
  and uploads one payload.  The paper runs "multiple copies of the
  same model", one per replica; every gradient code rests on the ``c``
  replicas of partition *i* computing the identical ``g_i``, so the
  workers of one simulated cluster share a :class:`RoundGradients` and
  each ``g_i`` is evaluated once per (step, broadcast parameters)
  instead of ``c`` times.  The uploads are bit-equal to every worker
  differentiating on its own;
* the :class:`MasterActor` broadcasts the current parameters and
  collects the uploads its wait policy accepted (the
  ``ray.wait(num_returns=w)`` call); the round engine then decodes via
  the strategy and performs the unbiased update.

Actors are pure state machines:
:class:`~repro.engine.backends.ActorBackend` times every round with its
:class:`~repro.simulation.ClusterSimulator`, so the same actors can
later be driven by a real transport.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..exceptions import TrainingError
from ..training.gradients import BatchStreams
from ..training.models import Model
from ..training.strategies import TrainingStrategy
from ..types import StepRecord
from .messages import GradientUpload, ParameterBroadcast


class RoundGradients:
    """One round's ``(P, D)`` gradients, for the workers that share it.

    The ``c`` workers storing partition ``i`` all need the identical
    ``g_i`` of the broadcast parameters, so the first one to ask
    computes the round and the rest read it (read-only — a payload that
    aliases a row cannot corrupt a peer's).  The memo is the worker
    group's: the streams it reads hold no run state.
    """

    def __init__(self, model: Model, streams: BatchStreams):
        self._model = model
        self._streams = BatchStreams.require(streams)
        #: (step, parameter bytes, gradients) of the last round asked for.
        self._memo: Optional[tuple] = None

    def at(self, step: int, parameters: np.ndarray) -> np.ndarray:
        """All partitions' gradients, once per ``(step, parameters)``."""
        parameters = np.asarray(parameters, dtype=float)
        key = parameters.tobytes()
        memo = self._memo
        if memo is None or memo[0] != step or memo[1] != key:
            _, grads = self._streams.gradients(self._model, step, parameters)
            grads.flags.writeable = False
            self._memo = memo = (step, key, grads)
        return memo[2]


class WorkerActor:
    """Owns a subset of partitions; computes and encodes gradients
    (on its own, or through the cluster's ``shared`` round memo)."""

    def __init__(
        self,
        worker_id: int,
        strategy: TrainingStrategy,
        model: Model,
        streams: BatchStreams,
        shared: Optional[RoundGradients] = None,
    ):
        self._id = worker_id
        self._strategy = strategy
        self._gradients = (
            shared if shared is not None else RoundGradients(model, streams)
        )
        self._partitions = strategy.placement.partitions_of(worker_id)

    @property
    def worker_id(self) -> int:
        return self._id

    @property
    def partitions(self) -> tuple:
        return self._partitions

    def update_strategy(self, strategy: TrainingStrategy) -> None:
        """Adopt a new strategy (e.g. after a placement migration)."""
        self._strategy = strategy
        self._partitions = strategy.placement.partitions_of(self._id)

    def handle_broadcast(
        self, msg: ParameterBroadcast, now: float
    ) -> GradientUpload:
        """Compute this step's coded gradient at the received params."""
        if msg.parameters is None:
            raise TrainingError("broadcast carried no parameters")
        gradients = self._gradients.at(msg.step, msg.parameters)
        payload = self._strategy.encode_worker_payload(
            self._id, {p: gradients[p] for p in self._partitions}
        )
        return GradientUpload(
            sender=f"worker-{self._id}",
            send_time=now,
            step=msg.step,
            worker=self._id,
            payload=payload,
        )


class MasterActor:
    """Broadcasts parameters, collects uploads, keeps the step log."""

    def __init__(self, strategy: TrainingStrategy, model: Model):
        self._strategy = strategy
        self._model = model
        self._step = 0
        self._pending: Dict[int, GradientUpload] = {}
        self.records: List[StepRecord] = []

    @property
    def step(self) -> int:
        return self._step

    def broadcast(self, now: float) -> ParameterBroadcast:
        """Start a step: hand current parameters to every worker."""
        self._pending = {}
        return ParameterBroadcast(
            sender="master",
            send_time=now,
            step=self._step,
            parameters=self._model.get_parameters(),
        )

    def receive(self, msg: GradientUpload) -> None:
        """Accept one upload for the current step."""
        if msg.step != self._step:
            raise TrainingError(
                f"upload for step {msg.step} during step {self._step}"
            )
        self._pending[msg.worker] = msg

    def num_received(self) -> int:
        """Uploads accepted so far this step."""
        return len(self._pending)

    def update_strategy(self, strategy: TrainingStrategy) -> None:
        """Adopt a new strategy (e.g. after a placement migration)."""
        self._strategy = strategy

    def commit_record(self, record: StepRecord) -> None:
        """Append an engine-produced record and advance the step counter.

        The round engine owns decode/update when driving the actors via
        :class:`~repro.engine.backends.ActorBackend`; this keeps
        ``master.records`` and ``master.step`` in step with it.
        """
        self.records.append(record)
        self._step += 1

    def restore_progress(self, step: int, records) -> None:
        """Reset the step counter and record log (checkpoint restore)."""
        self._step = step
        self._pending = {}
        self.records = list(records)

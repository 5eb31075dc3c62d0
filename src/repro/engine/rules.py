"""Update rules: what the engine does with a decoded round.

Training loops differ not in the round mechanics (encode → arrivals →
wait → decode — that is the backend's job) but in four small policies,
captured here as :class:`UpdateRule` hooks:

* what is computed per partition (:meth:`compute_partitions` — a
  gradient for SGD, a τ-step parameter delta for local-update SGD, as
  one ``(P, D)`` block whose row ``p`` is partition ``p``'s); both are
  stacked calls into the one gradient path,
  :meth:`repro.training.gradients.BatchStreams.gradients`, and leave
  the engine's model untouched;
* what happens before a step (:meth:`before_step` — nothing, or an
  adaptive migration review);
* how the decoded sum is applied (:meth:`apply` — an optimizer update,
  or a direct parameter assignment);
* how the run labels itself and charges extra simulated time
  (:meth:`scheme_label`, :meth:`time_offset`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..core.advisor import evaluate_placement, rank_placements
from ..core.migration import migration_cost_seconds, migration_plan
from ..core.placement import Placement
from ..env import model_from
from ..exceptions import TrainingError
from ..simulation.network import NetworkModel
from ..training.strategies import ISGCStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ..training.optimizers import SGD
    from .core import RoundEngine


@dataclass(frozen=True)
class MigrationEvent:
    """A placement switch performed during training."""

    step: int
    sim_time: float
    from_label: str
    to_label: str
    partition_copies: int
    cost_seconds: float


class UpdateRule:
    """Base rule: per-partition gradients, no extra behaviour.

    Subclasses override the hooks they need; the defaults are inert
    (``before_step`` does nothing, ``time_offset`` is zero, the scheme
    label is the strategy's name).
    """

    #: whether the committed StepRecord carries ``‖applied‖₂``.
    records_grad_norm: bool = False
    #: noun used in "nothing recovered" errors ("step" vs "round").
    step_noun: str = "step"

    def compute_partitions(
        self, engine: "RoundEngine", step: int
    ) -> Tuple[np.ndarray, Sequence[float]]:
        """The ``(P, D)`` block to encode, plus the batch losses.

        Called by :class:`~repro.engine.backends.FlatBackend` once per
        round.  The default draws each partition's seeded batch and
        evaluates the gradient at the current parameters — the
        canonical step shared by every synchronous scheme in the paper.
        """
        losses, grads = engine.streams.gradients(engine.model, step)
        return grads, losses.tolist()

    def before_step(self, engine: "RoundEngine", step: int) -> None:
        """Hook run before the round executes."""

    def apply(
        self,
        engine: "RoundEngine",
        aggregate: np.ndarray,
        recovered: FrozenSet[int],
    ) -> np.ndarray:
        """Apply the decoded sum to the model; returns the applied vector."""
        raise NotImplementedError

    def time_offset(self) -> float:
        """Extra simulated seconds charged on top of the backend clock."""
        return 0.0

    def scheme_label(self, engine: "RoundEngine") -> str:
        """The scheme name reported in the training summary."""
        return engine.strategy.name

    def snapshot_state(self) -> Dict:
        """JSON-safe mutable rule state (checkpointing); default none."""
        return {}

    def restore_state(self, engine: "RoundEngine", state) -> None:
        """Restore state captured by :meth:`snapshot_state`."""


class SyncUpdate(UpdateRule):
    """Unbiased mean-gradient SGD update (sync/GC/IS-SGD/IS-GC)."""

    records_grad_norm = True

    def __init__(self, optimizer: "SGD", recovery_scaled_lr: bool = False):
        self._optimizer = optimizer
        # Linear-scaling rule adapted to partial recovery: when fewer
        # partitions are recovered the gradient estimate is noisier, so
        # scale the step down by the recovered fraction (an extension;
        # off by default to match the paper's constant-η setting).
        self._recovery_scaled_lr = recovery_scaled_lr

    def apply(self, engine, aggregate, recovered):
        mean_grad = aggregate / len(recovered)
        if self._recovery_scaled_lr:
            mean_grad = mean_grad * (len(recovered) / engine.num_partitions)
        params = self._optimizer.update(
            engine.model.get_parameters(), mean_grad
        )
        engine.model.set_parameters(params)
        return mean_grad

    def snapshot_state(self):
        return {"optimizer": self._optimizer.snapshot_state()}

    def restore_state(self, engine, state):
        self._optimizer.restore_state(state["optimizer"])


class LocalUpdate(UpdateRule):
    """Local-update SGD: aggregate τ-step parameter deltas, not gradients.

    Every replica of a partition computes the identical delta (the
    local trajectory is deterministic given the broadcast parameters
    and the seeded stream), so the delta plays the role of ``g_i`` and
    the master decodes exactly as with gradients.
    """

    step_noun = "round"

    def __init__(self, local_steps: int, local_lr: float):
        if local_steps <= 0:
            raise TrainingError(
                f"local_steps must be positive, got {local_steps}"
            )
        if local_lr <= 0:
            raise TrainingError(f"local_lr must be positive, got {local_lr}")
        self._tau = local_steps
        self._lr = local_lr

    @property
    def local_steps(self) -> int:
        return self._tau

    def compute_partitions(self, engine, step):
        """τ local SGD steps per partition; returns every ``−Δ``.

        The sign convention matches gradients: the master *subtracts*
        the aggregated quantity scaled by its own step size of 1, so
        row ``p`` of the ``(P, D)`` block is partition ``p``'s
        ``start − final`` ("the direction to move along").

        Batches are drawn at global steps ``round·τ .. round·τ+τ−1``,
        so every replica of a partition sees the identical sequence.
        After the first step each partition is on its own parameter
        row.
        """
        start = engine.model.get_parameters()
        params = start
        for t in range(self._tau):
            _, grads = engine.streams.gradients(
                engine.model, step * self._tau + t, params
            )
            params = params - self._lr * grads
        return start - params, ()

    def apply(self, engine, aggregate, recovered):
        mean_delta = aggregate / len(recovered)
        engine.model.set_parameters(engine.model.get_parameters() - mean_delta)
        return mean_delta

    def scheme_label(self, engine):
        return f"local-sgd(τ={self._tau})+{engine.strategy.name}"


class AdaptiveMigration(SyncUpdate):
    """Sync updates plus periodic placement-migration reviews.

    Every ``review_every`` steps: rank placements at the observed wait
    count, estimate the per-step saving from the recovery improvement,
    and migrate when the amortisation test passes — the simulated clock
    is charged the full migration cost, model and optimizer state carry
    over, and the engine's strategy is swapped in place.
    """

    records_grad_norm = False

    def __init__(
        self,
        optimizer: "SGD",
        wait_for: int,
        partition_bytes: float = 1e7,
        network: NetworkModel | None = None,
        review_every: int = 25,
        min_recovery_gain: float = 0.05,
        *,
        rng: np.random.Generator,
    ):
        super().__init__(optimizer)
        if review_every <= 0:
            raise TrainingError(
                f"review_every must be positive, got {review_every}"
            )
        if not 0.0 <= min_recovery_gain <= 1.0:
            raise TrainingError(
                f"min_recovery_gain must be in [0, 1], got {min_recovery_gain}"
            )
        self._wait_for = wait_for
        self._bytes = partition_bytes
        self._network = model_from("network", network)
        self._review_every = review_every
        self._min_gain = min_recovery_gain
        self._rng = rng
        self._penalty = 0.0
        self.migrations: List[MigrationEvent] = []

    @property
    def review_every(self) -> int:
        return self._review_every

    def before_step(self, engine, step):
        if step > 0 and step % self._review_every == 0:
            self._maybe_migrate(engine, step)

    def _maybe_migrate(self, engine: "RoundEngine", step: int) -> None:
        placement: Placement = engine.strategy.placement
        n = placement.num_workers
        c = placement.partitions_per_worker
        ranking = rank_placements(
            n, c, self._wait_for, trials=1500, seed=step
        )
        best = ranking[0]
        current = evaluate_placement(
            placement, self._wait_for, trials=1500, seed=step
        )
        gain_partitions = best.expected_recovered - current.expected_recovered
        if gain_partitions / n < self._min_gain:
            return

        plan = migration_plan(placement, best.placement)
        if plan.is_noop:
            return
        cost = migration_cost_seconds(plan, self._bytes, self._network)
        # Saving model: higher recovery → fewer steps for the same
        # progress; approximate per-step value as the recovery gain
        # times the recent average step time.
        window = engine.records[-self._review_every:]
        if not window:
            return
        avg_step = float(np.mean([r.wait_time for r in window]))
        per_step_saving = (gain_partitions / n) * avg_step
        remaining = engine.max_steps - step
        if per_step_saving * remaining <= cost:
            return

        self._penalty += cost
        self.migrations.append(
            MigrationEvent(
                step=step,
                sim_time=engine.backend.clock + cost,
                from_label=current.label,
                to_label=best.label,
                partition_copies=plan.total_partition_copies,
                cost_seconds=cost,
            )
        )
        # Rebuilt from a concrete migrated Placement object with the
        # run's shared generator — the name-keyed registry cannot
        # express either, so the strategy is constructed directly.
        engine.strategy = ISGCStrategy(
            best.placement, wait_for=self._wait_for, rng=self._rng
        )
        if engine.tracer is not None:
            engine.tracer.set_context(scheme=engine.strategy.name)

    def time_offset(self) -> float:
        return self._penalty

    def scheme_label(self, engine):
        return f"adaptive-is-gc ({len(self.migrations)} migrations)"

    def snapshot_state(self):
        from dataclasses import asdict

        from .state import generator_state

        state = super().snapshot_state()
        state.update({
            "penalty": self._penalty,
            "rng": generator_state(self._rng),
            "migrations": [asdict(event) for event in self.migrations],
        })
        return state

    def restore_state(self, engine, state):
        """Restore adaptive state, replaying the last migration.

        The migrated placement is not serialised: ``rank_placements``
        is deterministic in ``(n, c, wait_for, seed=step)``, so the
        placement the run switched to is re-derived exactly from the
        recorded migration step.  The rebuilt strategy's decoder draws
        its key from this rule's generator, as the original swap did;
        the generator is restored after that draw, and the engine then
        restores the decoder's own key and counter.
        """
        from .state import set_generator_state

        super().restore_state(engine, state)
        self._penalty = float(state["penalty"])
        self.migrations = [
            MigrationEvent(**event) for event in state["migrations"]
        ]
        if self.migrations:
            placement: Placement = engine.strategy.placement
            ranking = rank_placements(
                placement.num_workers,
                placement.partitions_per_worker,
                self._wait_for,
                trials=1500,
                seed=self.migrations[-1].step,
            )
            engine.strategy = ISGCStrategy(
                ranking[0].placement, wait_for=self._wait_for, rng=self._rng
            )
        set_generator_state(self._rng, state["rng"])


class AsyncUpdate(UpdateRule):
    """Apply each gradient the moment it arrives (the async extreme)."""

    def __init__(self, optimizer: "SGD"):
        self._optimizer = optimizer

    def apply_arrival(self, engine: "RoundEngine", grad: np.ndarray) -> None:
        """Apply one arriving gradient to the master parameters."""
        params = self._optimizer.update(engine.model.get_parameters(), grad)
        engine.model.set_parameters(params)

    def apply(self, engine, aggregate, recovered):
        raise NotImplementedError(
            "AsyncUpdate applies per arrival; use RoundEngine.run_updates"
        )

    def scheme_label(self, engine):
        return "async-sgd"

    def snapshot_state(self):
        return {"optimizer": self._optimizer.snapshot_state()}

    def restore_state(self, engine, state):
        self._optimizer.restore_state(state["optimizer"])

"""Spec → engine, in two halves: the plan and the state.

In the paper everything but the straggler pattern is fixed before
training starts.  :class:`EnginePlan` is that part of a run — what an
:class:`~repro.engine.spec.ExperimentSpec` alone determines: dataset,
partitions and batch streams, the placement with its decoder tables,
the classic-GC coding matrix, the initial model vector, the resolved
backend factory and environment sections.  It is immutable (a frozen,
slotted dataclass over read-only arrays) and holds no run state.
:meth:`EnginePlan.engine` instantiates the other half — what
:class:`~repro.engine.state.EngineState` describes.  Any number of
engines may come from one plan; each runs bit for bit like
``build_engine(spec)``, which is ``EnginePlan(spec).engine()`` — there
is one assembly path.

Whoever restores many states of one run (the serve layer parking a
job) keeps the plan next to the state.  A plan belongs to its holder:
there is no table of plans and none is shared between specs.  Also
here: the built-in backends and the :class:`BuildContext` they receive.
"""

from __future__ import annotations

import copy
import dataclasses
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping

import numpy as np

from ..env import LAYERS, Environment
from ..exceptions import ConfigurationError, TrainingError
from .backends import AsyncArrivalBackend, ExecutionBackend, FlatBackend
from .core import RoundEngine
from .rules import AdaptiveMigration, AsyncUpdate, LocalUpdate, SyncUpdate, UpdateRule
from .spec import (
    _DEFAULT_DATASET,
    _DEFAULT_DELAY,
    _DEFAULT_MODEL,
    _delay_section,
    BACKEND_REGISTRY,
    BackendFactory,
    ExperimentSpec,
    make_strategy,
    register_backend,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..training.datasets import Dataset
    from ..training.gradients import BatchStreams
    from ..training.models import Model
    from ..training.strategies import TrainingStrategy
    from .state import EngineState


@dataclass
class BuildContext:
    """Everything a backend factory may need, already constructed;
    ``environment`` holds this engine's five model layers."""

    spec: ExperimentSpec
    model: Any
    streams: Any
    strategy: Any
    optimizer: Any
    eval_data: Any
    environment: Environment
    rng: np.random.Generator


# ----------------------------------------------------------------------
# Built-in backends.

def _cluster(ctx: BuildContext, **kwargs):
    """This engine's round simulator, in its environment."""
    return ctx.environment.simulator(
        ctx.spec.num_workers,
        ctx.strategy.placement.partitions_per_worker,
        rng=ctx.rng,
        **kwargs,
    )


@register_backend("flat")
def _flat_backend(ctx: BuildContext) -> ExecutionBackend:
    return FlatBackend(_cluster(ctx))


@register_backend("actor")
def _actor_backend(ctx: BuildContext) -> ExecutionBackend:
    # The paper's Ray round (Sec. VIII-A): the same simulator round as
    # ``flat``, with model-sized broadcasts and uploads.
    return FlatBackend(
        _cluster(ctx, gradient_elements=ctx.model.num_parameters)
    )


@register_backend("async-arrivals")
def _async_backend(ctx: BuildContext) -> ExecutionBackend:
    return AsyncArrivalBackend(ctx.environment, rng=ctx.rng)


# ----------------------------------------------------------------------
# Spec → plan (what the spec alone determines) → engine.

def _build_dataset(spec: ExperimentSpec):
    from ..training.datasets import (
        make_cifar_like,
        make_classification,
        make_regression,
    )

    params = {**_DEFAULT_DATASET, **dict(spec.dataset)}
    kind = params.pop("kind")
    params.pop("batch_size", None)
    params.setdefault("seed", spec.seed)
    if kind == "classification":
        return make_classification(
            params.pop("samples"), params.pop("features"), **params
        )
    if kind == "cifar-like":  # sized by ``side``; the other defaults idle
        return make_cifar_like(
            params["samples"], side=params.get("side", 8), seed=params["seed"]
        )
    if kind == "regression":
        params.pop("num_classes", None)
        params.pop("separation", None)
        return make_regression(
            params.pop("samples"), params.pop("features"), **params
        )
    raise ConfigurationError(f"unknown dataset kind {kind!r}")


def _build_model(spec: ExperimentSpec, dataset):
    from ..training.models import (
        LinearRegressionModel,
        LogisticRegressionModel,
        MLPClassifier,
        SoftmaxRegressionModel,
    )

    params = {**_DEFAULT_MODEL, **dict(spec.model)}
    kind = params.pop("kind")
    params.setdefault("seed", 0)
    features = int(dataset.features.shape[1])
    if kind == "logistic":
        return LogisticRegressionModel(features, **params)
    if kind == "linear":
        return LinearRegressionModel(features, **params)
    if kind in ("softmax", "mlp"):
        params.setdefault("num_classes", int(np.max(dataset.labels)) + 1)
        if kind == "softmax":
            return SoftmaxRegressionModel(features, **params)
        params.setdefault("hidden_units", 32)
        return MLPClassifier(features, **params)
    raise ConfigurationError(f"unknown model kind {kind!r}")


def _environment_sections(spec: ExperimentSpec) -> Dict[str, Any]:
    """The spec's five environment sections as ``Environment(**…)``
    takes them (the model instances carry run state — bursty phases —
    so they are built per engine).

    Every registered kind (``repro environments``) is reachable; the
    ``delay:`` section defaults its kind to ``exponential`` (the
    historical bare ``{"mean": ...}`` syntax keeps working), and bare
    ``compute:``/``network:`` parameter mappings build the ``uniform``
    families as before.
    """
    sections: Dict[str, Any] = {}
    for name in LAYERS:
        value = getattr(spec, name)
        # An empty section asks for the layer's default.
        sections[name] = (
            dict(value) if isinstance(value, Mapping) else value
        ) or None
    sections["delay"] = _delay_section(sections["delay"] or _DEFAULT_DELAY)
    return sections


def _build_rule(spec: ExperimentSpec, ctx: BuildContext) -> UpdateRule:
    params = spec.rule_params
    if spec.rule == "sync":
        return SyncUpdate(
            ctx.optimizer,
            recovery_scaled_lr=params.get("recovery_scaled_lr", False),
        )
    if spec.rule == "local-update":
        return LocalUpdate(
            local_steps=params.get("local_steps", 4),
            local_lr=params.get("local_lr", spec.learning_rate),
        )
    if spec.rule == "adaptive":
        return AdaptiveMigration(
            ctx.optimizer,
            wait_for=spec.wait_for,
            partition_bytes=params.get("partition_bytes", 1e7),
            network=ctx.environment.network,
            review_every=params.get("review_every", 25),
            min_recovery_gain=params.get("min_recovery_gain", 0.05),
            rng=np.random.default_rng(params.get("seed", spec.seed + 5)),
        )
    return AsyncUpdate(ctx.optimizer)  # admission knows no other rule


@dataclass(frozen=True, slots=True)
class EnginePlan:
    """Everything about a run that ``spec`` alone determines.

    Seeding convention: the dataset uses ``seed``, partitioning
    ``seed+1``, batch streams ``seed+2``, the strategy's decoder (and
    the classic-GC matrix draw) ``seed+3`` unless ``scheme_params.seed``
    sets it (the Fig. 12/13 runners set their per-trial decoder seeds
    there), the backend simulator ``seed+4``, and an adaptive rule's
    advisor ``seed+5``.  The generators a run advances are made per
    engine.
    """

    spec: ExperimentSpec
    #: the whole dataset; also every engine's held-out evaluation set.
    dataset: "Dataset" = field(init=False, repr=False)
    streams: "BatchStreams" = field(init=False, repr=False)
    #: at its seeded initial vector; engines get deep copies.
    model: "Model" = field(init=False, repr=False)
    #: a template (placement, code, decoder tables); engines get
    #: :meth:`~repro.training.strategies.TrainingStrategy.spawn` twins.
    strategy: "TrainingStrategy" = field(init=False, repr=False)
    #: ``Environment(**environment)`` builds one engine's models.
    environment: Mapping[str, Any] = field(init=False, repr=False)
    backend: BackendFactory = field(init=False, repr=False)

    def __post_init__(self) -> None:
        from ..training.datasets import partition_dataset
        from ..training.gradients import build_batch_streams

        spec = self.spec
        dataset = _build_dataset(spec)
        partitions = partition_dataset(
            dataset, spec.num_workers, seed=spec.seed + 1
        )
        batch_size = dict(spec.dataset).get(
            "batch_size", _DEFAULT_DATASET["batch_size"]
        )
        params = dict(spec.scheme_params)
        derived = {
            "dataset": dataset,
            "streams": build_batch_streams(
                partitions, batch_size, seed=spec.seed + 2
            ),
            "model": _build_model(spec, dataset),
            "strategy": make_strategy(
                spec.scheme,
                num_workers=spec.num_workers,
                partitions_per_worker=spec.partitions_per_worker,
                wait_for=spec.wait_for,
                seed=params.pop("seed", spec.seed + 3),
                **params,
            ),
            "environment": _environment_sections(spec),
            "backend": BACKEND_REGISTRY.resolve(
                "async-arrivals" if spec.rule == "async" else spec.backend
            ),
        }
        # Partitions, streams, the GC matrix and decoder tables are
        # read-only by construction; these are made so here.
        for array in (
            dataset.features, dataset.labels, *vars(derived["model"]).values()
        ):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def engine(self, tracer=None) -> RoundEngine:
        """One engine of this plan, at round zero with fresh run state;
        ``tracer`` (a :class:`~repro.obs.RoundTracer`) threads per-round
        tracing through it and never perturbs the run."""
        from ..training.optimizers import SGD

        spec = self.spec
        model = copy.deepcopy(self.model)
        strategy = self.strategy.spawn(
            spec.scheme_params.get("seed", spec.seed + 3),
            spec.scheme_params.get("cache"),
        )
        ctx = BuildContext(
            spec=spec,
            model=model,
            streams=self.streams,
            strategy=strategy,
            optimizer=SGD(spec.learning_rate),
            eval_data=self.dataset,
            environment=Environment(**self.environment),
            rng=np.random.default_rng(spec.seed + 4),
        )
        return RoundEngine(
            model=model,
            streams=self.streams,
            strategy=strategy,
            backend=self.backend(ctx),
            rule=_build_rule(spec, ctx),
            eval_data=self.dataset,
            tracer=tracer,
            plan=self,
        )

    def restore(self, engine: RoundEngine, state: "EngineState") -> None:
        """``engine.restore(state)``, refusing a state that another
        spec's engine snapshotted.

        ``engine`` is one of this plan's, its run started.  The state is
        held against the snapshot the engine would take now: ``mode``,
        and per ``rule`` / ``backend`` / ``strategy`` section the field
        names and every per-worker list's length (the model checks
        ``params``).  Specs alike in all that need a spec fingerprint
        in the state to be told apart; the layout has none.
        """
        ours, workers = engine.snapshot(), self.spec.num_workers
        if state.mode != ours.mode:
            raise TrainingError(
                f"engine state field 'mode' is {state.mode!r}, but rule "
                f"{self.spec.rule!r} runs in {ours.mode!r} mode"
            )
        for name in ("rule", "backend", "strategy"):
            kept, given = getattr(ours, name), getattr(state, name)
            if set(given) != set(kept):
                raise TrainingError(
                    f"engine state section {name!r} holds fields "
                    f"{sorted(given)}, but this spec's engine keeps "
                    f"{sorted(kept)}"
                )
            for key, value in kept.items():
                if isinstance(value, list) and (
                    len(value) == workers != len(given[key])
                ):
                    raise TrainingError(
                        f"engine state field '{name}.{key}' has "
                        f"{len(given[key])} entries for {workers} workers"
                    )
        engine.restore(state)


def build_engine(spec: ExperimentSpec, tracer=None) -> RoundEngine:
    """The full engine a spec describes (its plan: ``engine.plan``)."""
    return EnginePlan(spec).engine(tracer)


def run_spec_variation(base: ExperimentSpec, **overrides):
    """Run ``base`` with dataclass-field overrides applied.

    Module-level (hence picklable) cell function for spec grid sweeps:
    ``ProcessExecutor`` ships ``functools.partial(run_spec_variation,
    base)`` plus per-point override dicts across the pool boundary.
    Overrides re-run the spec's validation via ``dataclasses.replace``.
    """
    spec = dataclasses.replace(base, **overrides) if overrides else base
    return run_spec(spec)


def run_spec(spec: "ExperimentSpec | str | pathlib.Path"):
    """Build and run a spec; returns the run's summary.

    Accepts a spec object or a path to a ``.json``/``.toml`` file.
    Synchronous rules return a
    :class:`~repro.types.TrainingSummary`; the async rule returns an
    :class:`~repro.types.AsyncSummary`.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.from_file(spec)
    engine = build_engine(spec)
    if spec.rule == "async":
        return engine.run_updates(spec.max_steps)
    return engine.run(
        spec.max_steps,
        loss_threshold=spec.loss_threshold,
        smoothing_window=spec.smoothing_window,
    )

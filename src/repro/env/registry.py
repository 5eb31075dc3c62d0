"""The environment table: straggler models constructible by name.

The paper's premise is decoding under *arbitrary* straggler behaviour
(Sec. IV "as many scenarios as you can imagine"), and the related work
widens the space further — per-round random stragglers (Bitar et al.),
chronically slow machines (Sec. VIII-C's "enduring straggler").  This
module makes every such scenario a *named, parameterised family*, the
same move :mod:`repro.core.scheme` made for placements:

* one closed table per environment layer — **delay**, **failure**,
  **compute**, **network**, **contention** — whose rows are written
  once, below, by :func:`_register`; a row's ``build`` is the model
  class itself wherever the constructor takes the spec's parameters;
* :func:`make_model` — the construction entry point the spec engine,
  the CLI and library code share, and the one check of a section:
  did-you-mean errors for typos, parameter names against the row's
  signature, finite numbers, the shape of nested parameters, and the
  constructor's own value checks; it builds the parameters a row lists
  in ``nested`` through :func:`model_from` before calling ``build``;
* :func:`model_from` — the one coercer, accepting a built model, a
  bare kind string, a ``{"kind": ..., **params}`` mapping or (delay
  layer) a recorded :class:`DelayTrace`, applied recursively for
  composite families (``persistent`` / ``diurnal`` / ``bursty`` /
  ``bernoulli`` / ``mixture`` / ``composite`` name their sub-models
  the same way); a per-layer table states each layer's model types,
  its neutral kind, the kind of a kind-less mapping and the layer its
  nested sub-models belong to;
* :func:`model_spec_problems` — spec admission's hook: it builds the
  section and returns the refusal, so admission and the run hold one
  rule set.  Building is safe on untrusted payloads: every row builds
  in time linear in its section and draws no random numbers, and the
  one exception is ``trace-replay``'s ``path=``, which is read in full
  at every build (each spec construction), relative to the current
  directory, and bounded to a regular file of at most
  :data:`~repro.straggler.traces.MAX_TRACE_BYTES`;
* :func:`model_spec` / :func:`model_fingerprint` — the canonical
  JSON-ready spec of a section and its content digest, pure functions
  of the section data.  A built model has no spec: fingerprint the
  section it was built from.

:func:`model_from` and :func:`model_spec` read a section through one
split (:func:`_split`) into a kind and its parameters.

A compute or network model must be a pure function of its
construction arguments: :class:`~repro.simulation.ClusterSimulator`
reads each worker's compute seconds and the broadcast and upload times
once, when it is built, not per round.

Table-built models are **bit-for-bit identical** to direct
construction: parameters reach the constructor verbatim, so the
delay/failure streams (and RNG consumption order) match exactly —
property-tested per family in ``tests/test_env.py`` and pinned by
``tests/golden/environments.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..registry import Registry
from ..simulation.cluster import ComputeModel
from ..simulation.contention import ContendedUploadModel
from ..simulation.heterogeneous import HeterogeneousComputeModel
from ..simulation.network import NetworkModel
from ..straggler.failures import (
    CompositeFailures,
    FailureModel,
    NoFailures,
    PermanentCrashes,
    TransientDropouts,
)
from ..straggler.models import (
    BernoulliStraggler,
    BurstyDelay,
    DelayModel,
    DiurnalDelay,
    ExponentialDelay,
    MixtureDelay,
    NoDelay,
    ParetoDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
)
from ..straggler.traces import DelayTrace, TraceReplayModel


@dataclasses.dataclass(frozen=True)
class _Layer:
    """How one environment layer reads a spec value."""

    #: built models of this layer, passed through as they are.
    types: Tuple[type, ...]
    #: the kind of an absent layer: its ideal/neutral family.
    neutral: str
    #: the kind of a mapping with no ``kind`` key (``None``: refused).
    bare_kind: Optional[str] = None
    #: the layer that nested sub-model specs name (``ModelFamily.nested``).
    nested: Optional[str] = None


#: layer → how it reads a spec value, in catalogue order.
_LAYER_RULES: Dict[str, _Layer] = {
    "delay": _Layer((DelayModel,), "none", nested="delay"),
    "failure": _Layer((FailureModel,), "none", nested="failure"),
    "compute": _Layer(
        (ComputeModel, HeterogeneousComputeModel), "uniform",
        bare_kind="uniform",
    ),
    "network": _Layer((NetworkModel,), "uniform", bare_kind="uniform"),
    "contention": _Layer((ContendedUploadModel,), "none"),
}

#: the environment layers, in catalogue order.
LAYERS: Tuple[str, ...] = tuple(_LAYER_RULES)


@dataclasses.dataclass(frozen=True)
class ModelFamily:
    """One registered environment family: a named builder + metadata."""

    layer: str
    kind: str
    aliases: Tuple[str, ...]
    summary: str
    paper: str
    build: Callable[..., Any]
    #: parameter names whose values recursively name sub-models (shown
    #: in listings; built by :func:`make_model` before ``build`` sees
    #: them).
    nested: Tuple[str, ...] = ()
    #: those of ``nested`` that take a list of sub-models, not one.
    nested_lists: Tuple[str, ...] = ()
    #: name → default (``inspect.Parameter.empty`` when required):
    #: ``build``'s signature, read once, when the row is written (every
    #: :func:`make_model` call checks a section against it).
    parameters: Dict[str, Any] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", {
            name: p.default
            for name, p in inspect.signature(self.build).parameters.items()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        })


#: layer → kind → family: one :class:`~repro.registry.Registry` per layer.
ENV_REGISTRY: Dict[str, Registry[ModelFamily]] = {
    layer: Registry(f"{layer} model", "kinds", ConfigurationError)
    for layer in LAYERS
}


def _register(
    layer: str,
    kind: str,
    build: Callable[..., Any],
    *,
    aliases: Sequence[str] = (),
    summary: str = "",
    paper: str = "",
    nested: Sequence[str] = (),
    nested_lists: Sequence[str] = (),
) -> None:
    """Add the ``layer`` row ``kind`` (and its aliases) to the table.

    ``nested`` names the parameters that each take one sub-model spec,
    ``nested_lists`` those that take a list of them.
    """
    ENV_REGISTRY[layer].register(
        kind,
        ModelFamily(
            layer, kind, tuple(aliases), summary, paper, build,
            (*nested, *nested_lists), tuple(nested_lists),
        ),
        aliases,
    )


def _layer_rule(layer: str) -> _Layer:
    rule = _LAYER_RULES.get(layer)
    if rule is None:
        raise ConfigurationError(
            f"unknown environment layer {layer!r} "
            f"(layers: {', '.join(LAYERS)})"
        )
    return rule


def _layer_registry(layer: str) -> Registry[ModelFamily]:
    _layer_rule(layer)
    return ENV_REGISTRY[layer]


def registered_models(layer: str) -> List[str]:
    """Sorted canonical kinds of ``layer`` (aliases excluded)."""
    return sorted(_layer_registry(layer))


def resolve_model(layer: str, name: str) -> ModelFamily:
    """The family registered for ``name`` (canonical or alias)."""
    return _layer_registry(layer).resolve(name)


def _non_finite(value: Any) -> bool:
    """Whether ``value`` holds a NaN or an infinity, in lists and
    mappings too (a spec fingerprint's JSON would spell it ``NaN`` or
    ``Infinity``, which no strict parser reads back)."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(_non_finite(entry) for entry in value)
    return False


def _sub_model(layer: str, value: Any, where: str) -> Any:
    """:func:`model_from` of one nested sub-model spec; a refusal names
    the parameter it sits at (``models[0]: ...``)."""
    try:
        return model_from(layer, value)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def make_model(layer: str, kind: str, /, **params: Any) -> Any:
    """Construct the ``layer`` model of registered family ``kind``.

    The single construction entry point, so the one check of a
    section: names against the family's signature, finite numbers, and
    the shape of each ``nested`` parameter, which :func:`model_from`
    of the nested layer builds first (an absent or ``None`` one is
    passed as given).  A ``TypeError``, ``ValueError``,
    ``OverflowError`` or ``OSError`` from the constructor becomes a
    :class:`ConfigurationError` naming the layer and kind.
    """
    family = resolve_model(layer, kind)
    model = f"{layer} model {family.kind!r}"
    accepted = family.parameters
    problems = [
        f"{model} got unknown parameter {name!r} "
        f"(accepted: {', '.join(accepted)})"
        for name in params if name not in accepted
    ] + [
        f"{model} missing required parameter {name!r}"
        for name, default in accepted.items()
        if default is inspect.Parameter.empty and name not in params
    ] + [
        f"{model} parameter {name!r} must hold finite numbers, "
        "not NaN or infinities"
        for name, value in params.items()
        if name not in family.nested and _non_finite(value)
    ]
    if problems:
        raise ConfigurationError("; ".join(problems))
    sub_layer = _LAYER_RULES[layer].nested
    for name in family.nested:
        sub = params.get(name)
        if sub is None:
            continue
        listed = name in family.nested_lists
        if listed != isinstance(sub, (list, tuple)):
            wanted = "a list of sub-model specs" if listed else "one sub-model spec"
            raise ConfigurationError(
                f"{model} takes {wanted} for {name!r}, got {sub!r}"
            )
        params[name] = [
            _sub_model(sub_layer, entry, f"{name}[{i}]")
            for i, entry in enumerate(sub)
        ] if listed else _sub_model(sub_layer, sub, name)
    try:
        return family.build(**params)
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigurationError(f"{model}: {exc}") from exc


# ----------------------------------------------------------------------
# Spec sections: kind string | {"kind": ..., **params} | kind-less mapping.


def _split(layer: str, value: Any, where: str) -> Tuple[str, Dict[str, Any]]:
    """``(kind, params)`` of one spec section of ``layer``.

    A kind string has no params; a mapping's ``kind`` key names the
    family, and a mapping without one takes the layer's bare kind
    (refused where the layer has none).  Anything else is refused.
    """
    if isinstance(value, str):
        return value, {}
    if isinstance(value, Mapping):
        params = dict(value)
        kind = params.pop("kind", _layer_rule(layer).bare_kind)
        if kind is None:
            raise ConfigurationError(
                f"{where} needs a 'kind' key naming a registered model "
                f"(kinds: {', '.join(registered_models(layer))})"
            )
        return kind, params
    raise ConfigurationError(
        f"{where} must be a kind string or a {{'kind': ...}} "
        f"mapping, got {value!r}"
    )


def model_from(layer: str, value: Any) -> Any:
    """Coerce ``value`` to a ``layer`` model.

    A built model of the layer passes through; a kind string or a
    ``{"kind": ..., **params}`` mapping is built by the table;
    ``None`` builds the layer's neutral family (no delay, no failures,
    uniform compute and network, an uncontended link — the last is
    ``None`` itself).  A mapping with no ``kind`` builds the ``uniform``
    family on the compute and network layers (the historical
    bare-parameter spec syntax) and is refused on the others.  On the
    delay layer a recorded :class:`DelayTrace` is wrapped in the replay
    adapter (the Fig. 11/12 record-once-replay-everywhere idiom).
    """
    rule = _layer_rule(layer)
    if value is None:
        value = rule.neutral
    if isinstance(value, rule.types):
        return value
    if layer == "delay" and isinstance(value, DelayTrace):
        return TraceReplayModel(value)
    kind, params = _split(layer, value, f"{layer} model spec")
    return make_model(layer, kind, **params)


# ----------------------------------------------------------------------
# Canonical specs + fingerprints: functions of the section data.


def _canonical(value: Any) -> Any:
    """``value`` as canonical JSON-ready data (deterministic ordering)."""
    if isinstance(value, Mapping):
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (frozenset, set)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (list, tuple, range)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise ConfigurationError(
        f"a spec holds data, not {type(value).__name__} objects: "
        "name a built model by its {'kind': ...} section"
    )


def model_spec(layer: str, value: Any) -> Dict[str, Any]:
    """The canonical ``{"kind": ..., **params}`` spec of one ``layer``
    section: the registered kind, then the params as sorted JSON-ready
    data (nested sub-specs as given).  A built model, or a section
    :func:`make_model` refuses, is refused."""
    kind, params = _split(layer, value, f"{layer} model spec")
    model_from(layer, value)
    spec = {"kind": resolve_model(layer, kind).kind}
    spec.update(_canonical(params))
    return spec


def model_fingerprint(layer: str, value: Any) -> str:
    """Content digest of :func:`model_spec` (sha256 hex)."""
    payload = json.dumps(model_spec(layer, value), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def model_spec_problems(layer: str, value: Any, *, section: str = "") -> List[str]:
    """Why one ``layer`` section cannot be built (for spec admission):
    the refusal of :func:`model_from`, under ``section`` (default
    ``"<layer> spec"``), or no problem.  Admission builds the section
    the way the run will, so both refuse it with the same text.  The
    section is untrusted input, so any exception its build raises is a
    refusal of the section, not an error of the caller."""
    where = section or f"{layer} spec"
    try:
        model_from(layer, value)
    except RecursionError:
        return [f"{where}: sub-models nested too deeply to build"]
    except Exception as exc:
        return [f"{where}: {exc}"]
    return []


# ----------------------------------------------------------------------
# The table.  This module is the sanctioned construction layer,
# mirroring core/scheme.py for placements: the rest of the library
# builds environment models through make_model and model_from, which
# reach the constructors named below.  A row whose class constructor
# takes the spec's parameters names the class; the five factories
# below convert or default what a constructor does not take.


def _delay_persistent(
    stragglers: Sequence[int],
    delay: Any = None,
    background: Any = None,
    mean: Optional[float] = None,
    background_mean: Optional[float] = None,
) -> DelayModel:
    if (delay is None) == (mean is None):
        raise ConfigurationError(
            "persistent delay needs exactly one of delay= (a nested "
            "delay spec) or mean= (exponential sugar)"
        )
    if background is not None and background_mean is not None:
        raise ConfigurationError(
            "persistent delay takes background= (a nested delay spec) "
            "or background_mean= (exponential sugar), not both"
        )
    if delay is None:
        delay = ExponentialDelay(mean)
    if background_mean is not None:
        background = ExponentialDelay(background_mean)
    return PersistentStragglers(stragglers, delay, background_delay=background)


def _delay_trace(
    path: Optional[str] = None,
    delays: Optional[Sequence[Sequence[float]]] = None,
) -> DelayModel:
    if (path is None) == (delays is None):
        raise ConfigurationError(
            "trace-replay delay needs exactly one of path= (a JSON "
            "trace file) or delays= (an inline steps x workers table)"
        )
    trace = (
        DelayTrace.load(path)
        if path is not None
        else DelayTrace(np.asarray(delays, dtype=float))
    )
    return TraceReplayModel(trace)


def _compute_heterogeneous(
    speed_factors: Mapping[Any, float],
    base: float = ComputeModel.base,
    per_partition: float = ComputeModel.per_partition,
) -> HeterogeneousComputeModel:
    if not isinstance(speed_factors, Mapping):
        raise ConfigurationError(
            "heterogeneous compute needs speed_factors= as a "
            f"{{worker: factor}} mapping, got {speed_factors!r}"
        )
    factors = {int(w): float(f) for w, f in speed_factors.items()}
    return HeterogeneousComputeModel(
        ComputeModel(base=base, per_partition=per_partition), factors
    )


def _network_ideal() -> NetworkModel:
    return NetworkModel(latency=0.0, bandwidth=float("inf"))


def _contention_none() -> None:
    return None


_register(
    "delay", "none", NoDelay,
    aliases=("no-delay", "ideal"),
    summary="the ideal cluster — nobody straggles",
    paper="baseline in every figure",
)
_register(
    "delay", "exponential", ExponentialDelay,
    aliases=("exp",),
    summary=(
        "exponential delay on a chosen worker subset (affected=None "
        "hits everyone)"
    ),
    paper="Sec. VIII-B / Fig. 11 (means 1.5 s and 3.0 s)",
)
_register(
    "delay", "shifted-exponential", ShiftedExponentialDelay,
    aliases=("shifted_exponential", "shifted-exp"),
    summary="constant floor plus exponential tail — the classic latency model",
    paper="straggler literature staple (e.g. Lee et al.)",
)
_register(
    "delay", "pareto", ParetoDelay,
    summary="heavy-tailed delays scale*Pareto(alpha) for tail-weight ablations",
    paper="tail-sensitivity ablations",
)
_register(
    "delay", "bernoulli", BernoulliStraggler,
    summary=(
        "each worker independently straggles with probability p per "
        "step, drawing from the nested delay model"
    ),
    paper="stochastic gradient coding (Bitar et al., arXiv 1905.05383)",
    nested=("delay",),
)
_register(
    "delay", "persistent", _delay_persistent,
    summary=(
        "a fixed set of chronically slow workers (the 'enduring "
        "straggler'); mean=/background_mean= are exponential sugar"
    ),
    paper="Sec. VIII-C (the 99.6% enduring-straggler effect)",
    nested=("delay", "background"),
)
_register(
    "delay", "diurnal", DiurnalDelay,
    summary=(
        "nested base delay scaled by a sinusoidal load wave "
        "1 + amplitude*sin(2*pi*step/period)"
    ),
    paper="datacenter load cycles (beyond-paper ablation)",
    nested=("base",),
)
_register(
    "delay", "bursty", BurstyDelay,
    summary=(
        "two-state Gilbert model: calm <-> bursty per worker, burst "
        "delays from the nested model"
    ),
    paper="noisy-neighbour on/off pattern (beyond-paper ablation)",
    nested=("burst",),
)
_register(
    "delay", "mixture", MixtureDelay,
    summary="per-step mixture: with probability weights[k] use models[k]",
    paper="scenario blending (Sec. IV's 'any scenario' premise)",
    nested_lists=("models",),
)
_register(
    "delay", "trace-replay", _delay_trace,
    aliases=("trace",),
    summary=(
        "replay a recorded DelayTrace (path= to a JSON trace file, or "
        "delays= an inline steps x workers table)"
    ),
    paper="Fig. 11/12 controlled-seed methodology",
)

_register(
    "failure", "none", NoFailures,
    aliases=("no-failures",),
    summary="everything always arrives (the default)",
    paper="baseline",
)
_register(
    "failure", "permanent-crashes", PermanentCrashes,
    aliases=("crashes", "permanent_crashes"),
    summary="listed workers crash at a given step and never return",
    paper="arbitrary ignorance keeps w below the live count (Sec. IV)",
)
_register(
    "failure", "transient-dropouts", TransientDropouts,
    aliases=("dropouts", "transient_dropouts"),
    summary="each upload independently lost with probability p",
    paper="packet loss / preemption / OOM-restart",
)
_register(
    "failure", "composite", CompositeFailures,
    summary="alive only if alive under every nested failure model",
    paper="scenario composition",
    nested_lists=("models",),
)

_register(
    "compute", "uniform", ComputeModel,
    summary="base + c*per_partition seconds per worker per step",
    paper="Sec. VIII-B step-time accounting",
)
_register(
    "compute", "heterogeneous", _compute_heterogeneous,
    summary="uniform cost scaled by per-worker speed factors",
    paper="heterogeneity-aware GC discussion (related work [21])",
)

_register(
    "network", "uniform", NetworkModel,
    summary="latency + size/bandwidth per message (10 Gbit/s default)",
    paper="Fig. 12(c): 'most time is spent on uploading gradients'",
)
_register(
    "network", "ideal", _network_ideal,
    summary="zero latency, infinite bandwidth — isolates compute stragglers",
    paper="compute-only ablations",
)

_register(
    "contention", "none", _contention_none,
    summary="uncontended uplink: transfers are independent (the default)",
    paper="baseline",
)
_register(
    "contention", "fair-share", ContendedUploadModel,
    aliases=("fair_share", "shared-link"),
    summary=(
        "uploads max-min fair-share one master ingress link of the "
        "given capacity"
    ),
    paper="Sec. VIII-C upload-bound inference",
)

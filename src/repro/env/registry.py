"""The environment registries: straggler models constructible by name.

The paper's premise is decoding under *arbitrary* straggler behaviour
(Sec. IV "as many scenarios as you can imagine"), and the related work
widens the space further — per-round random stragglers (Bitar et al.),
chronically slow machines (Sec. VIII-C's "enduring straggler").  This
module makes every such scenario a *named, parameterised family*, the
same move :mod:`repro.core.scheme` made for placements:

* one registry per environment layer — **delay**, **failure**,
  **compute**, **network**, **contention** — populated by the
  :func:`register_delay` / :func:`register_failure` /
  :func:`register_compute` / :func:`register_network` /
  :func:`register_contention` decorators (alias support included);
* :func:`make_delay_model` and friends — the construction entry points
  the spec engine, the CLI and library code share, with did-you-mean
  errors for typos;
* :func:`model_from` — the one coercer, accepting a built model, a
  bare kind string or a ``{"kind": ..., **params}`` mapping, applied
  recursively for composite families (``persistent`` / ``diurnal`` /
  ``bursty`` / ``bernoulli`` / ``mixture`` name their sub-models the
  same way); a per-layer table states each layer's model types, its
  neutral kind, the kind of a kind-less mapping and the layer its
  nested sub-models belong to (:func:`delay_model_from` adds the
  recorded-trace case);
* :func:`model_spec_problems` — the arithmetic-only validation hook
  behind spec admission: signature-level problems (unknown kind, unknown
  or missing parameters, malformed nesting) without constructing
  anything;
* :func:`model_spec` / :func:`model_fingerprint` — the canonical
  JSON-ready spec of a section and its content digest, pure functions
  of the section data.  A built model has no spec: fingerprint the
  section it was built from.

:func:`model_from`, :func:`model_spec_problems` and :func:`model_spec`
read a section through one split (:func:`_split`) into a kind and its
parameters.

Registry-built models are **bit-for-bit identical** to direct
construction: the factories below forward parameters verbatim, so the
delay/failure streams (and RNG consumption order) match exactly —
property-tested per family in ``tests/test_env.py`` and pinned by
``tests/golden/environments.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
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
    #: in listings; validated recursively by :func:`model_spec_problems`).
    nested: Tuple[str, ...] = ()

    def parameters(self) -> Dict[str, Any]:
        """name → default (``inspect.Parameter.empty`` when required)."""
        return {
            name: p.default
            for name, p in inspect.signature(self.build).parameters.items()
            if p.kind
            in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        }


#: layer → kind → family: one :class:`~repro.registry.Registry` per layer.
ENV_REGISTRY: Dict[str, Registry[ModelFamily]] = {
    layer: Registry(f"{layer} model", "kinds", ConfigurationError)
    for layer in LAYERS
}

def _register(
    layer: str,
    kind: str,
    *,
    aliases: Sequence[str] = (),
    summary: str = "",
    paper: str = "",
    nested: Sequence[str] = (),
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def wrap(build: Callable[..., Any]) -> Callable[..., Any]:
        family = ModelFamily(
            layer=layer,
            kind=kind,
            aliases=tuple(aliases),
            summary=summary,
            paper=paper,
            build=build,
            nested=tuple(nested),
        )
        ENV_REGISTRY[layer].register(kind, family, aliases)
        return build

    return wrap


def register_delay(kind: str, **meta: Any):
    """Decorator registering a delay-model factory under ``kind``."""
    return _register("delay", kind, **meta)


def register_failure(kind: str, **meta: Any):
    """Decorator registering a failure-model factory under ``kind``."""
    return _register("failure", kind, **meta)


def register_compute(kind: str, **meta: Any):
    """Decorator registering a compute-model factory under ``kind``.

    A compute model must be a pure function of its construction
    arguments: :class:`~repro.simulation.ClusterSimulator` reads each
    worker's compute seconds once, when it is built, not per round.
    """
    return _register("compute", kind, **meta)


def register_network(kind: str, **meta: Any):
    """Decorator registering a network-model factory under ``kind``.

    A network model must be a pure function of its construction
    arguments: :class:`~repro.simulation.ClusterSimulator` reads the
    broadcast and upload times once, when it is built, not per round.
    """
    return _register("network", kind, **meta)


def register_contention(kind: str, **meta: Any):
    """Decorator registering a contention-model factory under ``kind``."""
    return _register("contention", kind, **meta)


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


def make_model(layer: str, kind: str, /, **params: Any) -> Any:
    """Construct the ``layer`` model of registered family ``kind``.

    The single construction entry point behind :func:`make_delay_model`
    and friends.  Unknown parameter names are rejected with the
    family's accepted signature.
    """
    family = resolve_model(layer, kind)
    try:
        return family.build(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for {layer} model {family.kind!r}: "
            f"{exc}; accepted: {', '.join(family.parameters())}"
        ) from exc


def make_delay_model(kind: str, /, **params: Any) -> DelayModel:
    """Construct the delay model of registered family ``kind``."""
    return make_model("delay", kind, **params)


def make_failure_model(kind: str, /, **params: Any) -> FailureModel:
    """Construct the failure model of registered family ``kind``."""
    return make_model("failure", kind, **params)


def make_compute_model(kind: str = "uniform", /, **params: Any):
    """Construct the compute model of registered family ``kind``."""
    return make_model("compute", kind, **params)


def make_network_model(kind: str = "uniform", /, **params: Any):
    """Construct the network model of registered family ``kind``."""
    return make_model("network", kind, **params)


def make_contention_model(kind: str, /, **params: Any):
    """Construct the contention model of registered family ``kind``
    (the ``none`` family yields ``None``: an uncontended link)."""
    return make_model("contention", kind, **params)


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
    ``{"kind": ..., **params}`` mapping is built by the registry;
    ``None`` builds the layer's neutral family (no delay, no failures,
    uniform compute and network, an uncontended link — the last is
    ``None`` itself).  A mapping with no ``kind`` builds the ``uniform``
    family on the compute and network layers (the historical
    bare-parameter spec syntax) and is refused on the others.
    """
    rule = _layer_rule(layer)
    if value is None:
        value = rule.neutral
    if isinstance(value, rule.types):
        return value
    kind, params = _split(layer, value, f"{layer} model spec")
    return make_model(layer, kind, **params)


def delay_model_from(value: Any) -> DelayModel:
    """Coerce ``value`` to a :class:`DelayModel`.

    :func:`model_from` for the delay layer, plus a recorded
    :class:`DelayTrace` (wrapped in the replay adapter — the Fig. 11/12
    record-once-replay-everywhere idiom).
    """
    if isinstance(value, DelayTrace):
        return TraceReplayModel(value)
    return model_from("delay", value)


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
    :func:`model_spec_problems` finds fault with, is refused."""
    where = f"{layer} model spec"
    problems = model_spec_problems(layer, value, section=where)
    if problems:
        raise ConfigurationError(problems[0])
    kind, params = _split(layer, value, where)
    spec = {"kind": resolve_model(layer, kind).kind}
    spec.update(_canonical(params))
    return spec


def model_fingerprint(layer: str, value: Any) -> str:
    """Content digest of :func:`model_spec` (sha256 hex)."""
    payload = json.dumps(model_spec(layer, value), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Static validation (arithmetic-only, nothing constructed).


def model_spec_problems(layer: str, value: Any, *, section: str = "") -> List[str]:
    """Signature-level problems of one model spec (for spec admission).

    Mirrors :func:`repro.core.scheme.placement_spec_problems`: unknown
    kinds get the same did-you-mean message runtime construction would
    raise; parameter names are checked against the factory signature;
    nested sub-model specs recurse.  Value-range constraints (negative
    means etc.) are construction-time concerns and not checked here.
    """
    where = section or f"{layer} spec"
    rule = _layer_rule(layer)
    if isinstance(value, rule.types):
        return []
    try:
        kind, params = _split(layer, value, where)
    except ConfigurationError as exc:
        return [str(exc)]
    try:
        family = ENV_REGISTRY[layer].resolve(kind)
    except ConfigurationError as exc:
        return [f"{where}: {exc}"]
    problems: List[str] = []
    accepted = family.parameters()
    for name in params:
        if name not in accepted:
            problems.append(
                f"{where}: {layer} model {family.kind!r} got unknown "
                f"parameter {name!r} (accepted: {', '.join(accepted)})"
            )
    for name, default in accepted.items():
        if default is inspect.Parameter.empty and name not in params:
            problems.append(
                f"{where}: {layer} model {family.kind!r} missing "
                f"required parameter {name!r}"
            )
    for name in family.nested:
        sub = params.get(name)
        if sub is None:
            continue
        sub_layer = rule.nested
        sub_section = f"{where}.{name}"
        if isinstance(sub, (list, tuple)):
            for i, entry in enumerate(sub):
                problems.extend(
                    model_spec_problems(
                        sub_layer, entry, section=f"{sub_section}[{i}]"
                    )
                )
        else:
            problems.extend(
                model_spec_problems(sub_layer, sub, section=sub_section)
            )
    return problems


# ----------------------------------------------------------------------
# Registered delay families.  This module is the sanctioned
# construction layer, mirroring core/scheme.py for placements: the
# rest of the library builds environment models through
# make_delay_model and friends, which reach the direct constructor
# calls below.


@register_delay(
    "none",
    aliases=("no-delay", "ideal"),
    summary="the ideal cluster — nobody straggles",
    paper="baseline in every figure",
)
def _delay_none() -> DelayModel:
    return NoDelay()


@register_delay(
    "exponential",
    aliases=("exp",),
    summary=(
        "exponential delay on a chosen worker subset (affected=None "
        "hits everyone)"
    ),
    paper="Sec. VIII-B / Fig. 11 (means 1.5 s and 3.0 s)",
)
def _delay_exponential(
    mean: float = 1.0, affected: Optional[Sequence[int]] = None
) -> DelayModel:
    return ExponentialDelay(mean, affected=affected)


@register_delay(
    "shifted-exponential",
    aliases=("shifted_exponential", "shifted-exp"),
    summary="constant floor plus exponential tail — the classic latency model",
    paper="straggler literature staple (e.g. Lee et al.)",
)
def _delay_shifted(shift: float, mean: float) -> DelayModel:
    return ShiftedExponentialDelay(shift, mean)


@register_delay(
    "pareto",
    summary="heavy-tailed delays scale*Pareto(alpha) for tail-weight ablations",
    paper="tail-sensitivity ablations",
)
def _delay_pareto(alpha: float, scale: float) -> DelayModel:
    return ParetoDelay(alpha, scale)


@register_delay(
    "bernoulli",
    summary=(
        "each worker independently straggles with probability p per "
        "step, drawing from the nested delay model"
    ),
    paper="stochastic gradient coding (Bitar et al., arXiv 1905.05383)",
    nested=("delay",),
)
def _delay_bernoulli(probability: float, delay: Any) -> DelayModel:
    return BernoulliStraggler(probability, delay_model_from(delay))


@register_delay(
    "persistent",
    summary=(
        "a fixed set of chronically slow workers (the 'enduring "
        "straggler'); mean=/background_mean= are exponential sugar"
    ),
    paper="Sec. VIII-C (the 99.6% enduring-straggler effect)",
    nested=("delay", "background"),
)
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
    slow = delay_model_from(delay) if delay is not None else ExponentialDelay(mean)
    fast = None
    if background is not None:
        fast = delay_model_from(background)
    elif background_mean is not None:
        fast = ExponentialDelay(background_mean)
    return PersistentStragglers(stragglers, slow, background_delay=fast)


@register_delay(
    "diurnal",
    summary=(
        "nested base delay scaled by a sinusoidal load wave "
        "1 + amplitude*sin(2*pi*step/period)"
    ),
    paper="datacenter load cycles (beyond-paper ablation)",
    nested=("base",),
)
def _delay_diurnal(
    base: Any, period_steps: int, amplitude: float = 0.5
) -> DelayModel:
    return DiurnalDelay(delay_model_from(base), period_steps, amplitude)


@register_delay(
    "bursty",
    summary=(
        "two-state Gilbert model: calm <-> bursty per worker, burst "
        "delays from the nested model"
    ),
    paper="noisy-neighbour on/off pattern (beyond-paper ablation)",
    nested=("burst",),
)
def _delay_bursty(
    burst: Any, enter_burst: float = 0.05, exit_burst: float = 0.25
) -> DelayModel:
    return BurstyDelay(
        delay_model_from(burst), enter_burst=enter_burst, exit_burst=exit_burst
    )


@register_delay(
    "mixture",
    summary="per-step mixture: with probability weights[k] use models[k]",
    paper="scenario blending (Sec. IV's 'any scenario' premise)",
    nested=("models",),
)
def _delay_mixture(models: Sequence[Any], weights: Sequence[float]) -> DelayModel:
    return MixtureDelay([delay_model_from(m) for m in models], weights)


@register_delay(
    "trace-replay",
    aliases=("trace",),
    summary=(
        "replay a recorded DelayTrace (path= to a JSON trace file, or "
        "delays= an inline steps x workers table)"
    ),
    paper="Fig. 11/12 controlled-seed methodology",
)
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


# ----------------------------------------------------------------------
# Registered failure families.


@register_failure(
    "none",
    aliases=("no-failures",),
    summary="everything always arrives (the default)",
    paper="baseline",
)
def _failure_none() -> FailureModel:
    return NoFailures()


@register_failure(
    "permanent-crashes",
    aliases=("crashes", "permanent_crashes"),
    summary="listed workers crash at a given step and never return",
    paper="arbitrary ignorance keeps w below the live count (Sec. IV)",
)
def _failure_crashes(
    crashed_workers: Sequence[int], at_step: int = 0
) -> FailureModel:
    return PermanentCrashes(crashed_workers, at_step=at_step)


@register_failure(
    "transient-dropouts",
    aliases=("dropouts", "transient_dropouts"),
    summary="each upload independently lost with probability p",
    paper="packet loss / preemption / OOM-restart",
)
def _failure_dropouts(probability: float) -> FailureModel:
    return TransientDropouts(probability)


@register_failure(
    "composite",
    summary="alive only if alive under every nested failure model",
    paper="scenario composition",
    nested=("models",),
)
def _failure_composite(models: Sequence[Any]) -> FailureModel:
    return CompositeFailures([model_from("failure", m) for m in models])


# ----------------------------------------------------------------------
# Registered compute / network / contention families.


register_compute(
    "uniform",
    summary="base + c*per_partition seconds per worker per step",
    paper="Sec. VIII-B step-time accounting",
)(ComputeModel)


@register_compute(
    "heterogeneous",
    summary="uniform cost scaled by per-worker speed factors",
    paper="heterogeneity-aware GC discussion (related work [21])",
)
def _compute_heterogeneous(
    speed_factors: Mapping[Any, float],
    base: float = ComputeModel.base,
    per_partition: float = ComputeModel.per_partition,
) -> HeterogeneousComputeModel:
    factors = {int(w): float(f) for w, f in speed_factors.items()}
    return HeterogeneousComputeModel(
        ComputeModel(base=base, per_partition=per_partition), factors
    )


register_network(
    "uniform",
    summary="latency + size/bandwidth per message (10 Gbit/s default)",
    paper="Fig. 12(c): 'most time is spent on uploading gradients'",
)(NetworkModel)


@register_network(
    "ideal",
    summary="zero latency, infinite bandwidth — isolates compute stragglers",
    paper="compute-only ablations",
)
def _network_ideal() -> NetworkModel:
    return NetworkModel(latency=0.0, bandwidth=float("inf"))


@register_contention(
    "none",
    summary="uncontended uplink: transfers are independent (the default)",
    paper="baseline",
)
def _contention_none() -> None:
    return None


@register_contention(
    "fair-share",
    aliases=("fair_share", "shared-link"),
    summary=(
        "uploads max-min fair-share one master ingress link of the "
        "given capacity"
    ),
    paper="Sec. VIII-C upload-bound inference",
)
def _contention_fair_share(
    capacity_bytes_per_s: float, bytes_per_element: int = 4
) -> ContendedUploadModel:
    return ContendedUploadModel(
        capacity_bytes_per_s, bytes_per_element=bytes_per_element
    )

"""Declarative experiments: :class:`ExperimentSpec` and its name tables.

An experiment used to be ~40 lines of hand wiring (dataset → partitions
→ streams → model → strategy → simulator → trainer) copy-pasted across
the figure runners, the examples, and every notebook.  A spec is the
same information as data::

    spec = ExperimentSpec(
        name="quickstart",
        scheme="is-gc-cr",
        num_workers=4,
        partitions_per_worker=2,
        wait_for=2,
        delay={"kind": "exponential", "mean": 1.5},
        max_steps=200,
    )
    summary = run_spec(spec)

Specs load from JSON or TOML files (``repro run spec.json``).  The
paper compares a fixed set of schemes on a fixed set of backends, so
both are closed tables filled here with data:

* :data:`SCHEME_REGISTRY` — scheme name → the placement family it runs
  over, or ``None``; :func:`make_strategy` is the one builder;
* :data:`BACKEND_REGISTRY` — backend name → what it runs;
  :meth:`~repro.engine.plan.EnginePlan.engine` builds it.

Admission refuses a name neither table holds.  The open tables live one
layer down: :data:`~repro.core.scheme.PLACEMENT_REGISTRY` maps
placement-family names to :class:`~repro.core.placement.Placement`
subclasses, and the generic ``is-gc`` scheme exposes *every* registered
family to specs: ``scheme="is-gc"`` with ``scheme_params={"placement":
"hr", ...}``; ``is-gc-fr``, ``is-gc-cr`` and ``is-gc-hr`` are presets of
it that fix ``placement``.  :data:`~repro.env.ENV_REGISTRY` resolves the
``delay:`` / ``failure:`` / ``compute:`` / ``network:`` /
``contention:`` sections by kind, so every registered straggler
scenario (``repro environments``) is spec-reachable — nested composites
(``persistent`` / ``diurnal`` / ``bursty`` / ``mixture`` /
``bernoulli``) name their sub-models the same way.  So a new IS-GC
variant is a placement-family registration; a new scheme is one row
of :data:`SCHEME_REGISTRY` plus one :func:`make_strategy` branch.

Turning a spec into an engine is :mod:`repro.engine.plan`'s job
(:class:`~repro.engine.plan.EnginePlan`); :func:`build_engine` and
:func:`run_spec` stay importable from here.

Training-layer classes are imported lazily inside :func:`make_strategy`
so ``repro.engine`` never circularly imports ``repro.training`` at
module load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import pathlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.scheme import (
    placement_spec_problems,
    resolve_placement,
    spec_placement_scheme,
)
from ..env.registry import LAYERS, model_spec_problems
from ..exceptions import ConfigurationError
from ..registry import Registry, did_you_mean

#: scheme name → the placement family it runs over, or ``None``:
#: ``gc`` decodes CR, each ``is-gc-<family>`` preset is ``is-gc`` with
#: ``placement`` fixed, and ``is-gc``'s own entry is its default
#: ``placement``.  Admission reads it to check a scheme's placement
#: constraints.
SCHEME_REGISTRY: Registry[Optional[str]] = Registry(
    "scheme", "schemes", ConfigurationError
)
#: backend name → what it runs.
BACKEND_REGISTRY: Registry[str] = Registry(
    "backend", "backends", ConfigurationError
)
for _name, _family in (
    ("sync-sgd", None), ("is-sgd", None), ("gc", "cr"), ("is-gc-fr", "fr"),
    ("is-gc-cr", "cr"), ("is-gc-hr", "hr"), ("is-gc", "cr"),
):
    SCHEME_REGISTRY.register(_name, _family)
for _name, _runs in (
    ("flat", "the simulated synchronous round, 10 000-element messages"),
    # The paper's Ray round (Sec. VIII-A).
    ("actor", "the flat round with model-sized broadcasts and uploads"),
    ("async-arrivals", "one update per arrival; the async rule's backend"),
):
    BACKEND_REGISTRY.register(_name, _runs)


def _runs_on(spec: "ExperimentSpec") -> str:
    """The backend ``spec`` runs on: the async rule's is always
    ``async-arrivals`` (its spec may name ``flat``, the default)."""
    return "async-arrivals" if spec.rule == "async" else spec.backend


def make_strategy(
    name: str,
    *,
    num_workers: int,
    partitions_per_worker: int = 1,
    wait_for: Optional[int] = None,
    rng: np.random.Generator | None = None,
    seed: Optional[int] = None,
    **params: Any,
):
    """Instantiate scheme ``name``, one of :data:`SCHEME_REGISTRY`.

    ``params`` are the scheme's ``scheme_params`` but ``seed``: IS-GC's
    ``placement`` and its family's own parameters.  ``seed`` is sugar
    for ``rng=np.random.default_rng(seed)`` (matching the figure
    runners' per-trial seeding); an explicit ``rng`` wins.
    """
    from ..training.strategies import (
        ClassicGCStrategy,
        ISGCStrategy,
        ISSGDStrategy,
        SyncSGDStrategy,
    )

    family = SCHEME_REGISTRY.resolve(name)
    problem = _unknown_scheme_params(name, params)
    if problem is not None:
        raise ConfigurationError(problem)
    if rng is None and seed is not None:
        rng = np.random.default_rng(seed)
    if name == "sync-sgd":
        return SyncSGDStrategy(num_workers)
    if name == "gc":
        placement = spec_placement_scheme(
            family, num_workers=num_workers,
            partitions_per_worker=partitions_per_worker,
        )
        return ClassicGCStrategy(placement, rng=rng)
    if wait_for is None:
        raise ConfigurationError(f"scheme {name!r} needs wait_for")
    if name == "is-sgd":
        return ISSGDStrategy(num_workers, wait_for)
    placement = spec_placement_scheme(
        params.pop("placement", family),
        num_workers=num_workers,
        partitions_per_worker=partitions_per_worker,
        **params,
    )
    return ISGCStrategy(placement, wait_for=wait_for, rng=rng)


#: ``scheme_params`` every scheme accepts, used or not, so one params
#: table can be shared across a ``scheme`` grid.
_COMMON_SCHEME_PARAMS = ("seed",)


def _scheme_param_names(
    scheme: str, placement: Any = None
) -> Optional[Tuple[str, ...]]:
    """The ``scheme_params`` keys ``scheme`` accepts, in the order a
    refusal lists them; ``None`` when the set is open or not known here.

    Every scheme takes the common keys.  An ``is-gc-<family>`` preset
    also takes its family's own placement parameters (HR's ``c1``,
    ``c2``, ``num_groups``), and ``is-gc`` takes ``placement`` plus the
    parameters of that family (its default when ``None``).  An unknown
    family (admission names it) and a family that forwards extra
    keywords to a base family read ``None``.
    """
    if not scheme.startswith("is-gc"):
        return _COMMON_SCHEME_PARAMS
    head, family = (), SCHEME_REGISTRY[scheme]
    if scheme == "is-gc":
        head = ("placement",)
        if placement is not None:
            family = placement
    try:
        cls = resolve_placement(family)
    except ConfigurationError:
        return None
    signature = inspect.signature(cls.__init__).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in signature):
        return None
    own = tuple(
        p.name for p in signature
        if p.name not in ("self", "num_workers", "partitions_per_worker")
    )
    return head + own + _COMMON_SCHEME_PARAMS


def _unknown_scheme_params(
    scheme: str, params: Mapping[str, Any]
) -> Optional[str]:
    """The refusal for the ``params`` keys that ``scheme`` (a table
    entry) does not accept, or ``None`` when every key is accepted (or
    the set is open)."""
    accepted = _scheme_param_names(scheme, params.get("placement"))
    if accepted is None:
        return None
    unknown = sorted(set(params) - set(accepted))
    if not unknown:
        return None
    return (
        f"unknown scheme_params for scheme {scheme!r}: "
        f"{_did_you_mean(unknown, accepted)}; "
        f"accepted: {', '.join(accepted)}"
    )


# ----------------------------------------------------------------------
# The spec itself.

_DEFAULT_DATASET: Mapping[str, Any] = {
    "kind": "classification",
    "samples": 512,
    "features": 8,
    "num_classes": 2,
    "separation": 3.0,
    "batch_size": 32,
}

_DEFAULT_MODEL: Mapping[str, Any] = {"kind": "logistic"}

_DEFAULT_DELAY: Mapping[str, Any] = {"kind": "exponential", "mean": 1.0}


def _delay_section(section: Any) -> Any:
    """A kind-less ``delay:`` mapping is exponential (the paper's);
    admission and ``plan._environment_sections`` both read it so."""
    if isinstance(section, Mapping):
        return {"kind": "exponential", **section}
    return section

def _did_you_mean(unknown, known) -> str:
    """``'nmae' — did you mean 'name'?; 'x'`` for each unknown name."""
    import difflib

    hints = []
    for name in unknown:
        close = difflib.get_close_matches(
            str(name), sorted(known), n=1, cutoff=0.6
        )
        hints.append(
            f"{name!r} — did you mean {close[0]!r}?" if close else repr(name)
        )
    return "; ".join(hints)


def _is_int(value: Any, minimum: int = 1) -> bool:
    """Bools are not ints, nor are NumPy integers (the fingerprint's
    JSON cannot encode them)."""
    return (
        not isinstance(value, bool) and isinstance(value, int)
        and value >= minimum
    )


def _is_real(value: Any) -> bool:
    """Finite ints and floats, not bools (NaN and infinities would run
    under a fingerprint whose JSON no strict parser reads back, and an
    int past the float range overflows the first float it meets)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: (accepts the value?, what it must be) — one spec parameter's rule.
_Check = Tuple[Callable[[Any], bool], str]

_SIZE: _Check = (_is_int, "a positive integer")
_SEED: _Check = (lambda v: _is_int(v, 0), "an integer >= 0")
_CLASSES: _Check = (lambda v: _is_int(v, 2), "an integer >= 2")
_REAL: _Check = (_is_real, "a real number")

#: section → kind → the keys of that kind's section (``kind`` aside)
#: → its rule: what ``plan._build_dataset``, ``plan._build_model`` and
#: ``plan._build_rule`` build, one branch per kind and reading these
#: keys only.  A ``rule_params`` section's kind is the spec's ``rule``.
#: Admission refuses any other kind or key.
_SECTION_KEYS: Mapping[str, Mapping[str, Mapping[str, _Check]]] = {
    "dataset": {
        "classification": {
            "samples": _SIZE, "features": _SIZE, "num_classes": _CLASSES,
            "separation": _REAL, "seed": _SEED, "batch_size": _SIZE,
        },
        "cifar-like": {
            "samples": _SIZE, "side": _SIZE, "seed": _SEED,
            "batch_size": _SIZE,
        },
        "regression": {
            "samples": _SIZE, "features": _SIZE, "noise": _REAL,
            "seed": _SEED, "batch_size": _SIZE,
        },
    },
    "model": {
        "logistic": {"seed": _SEED},
        "linear": {"seed": _SEED},
        "softmax": {"num_classes": _CLASSES, "seed": _SEED},
        "mlp": {
            "num_classes": _CLASSES, "hidden_units": _SIZE, "seed": _SEED,
        },
    },
    "rule_params": {
        "sync": {
            "recovery_scaled_lr": (lambda v: isinstance(v, bool), "a bool"),
        },
        "local-update": {
            "local_steps": _SIZE,
            "local_lr": (
                lambda v: _is_real(v) and v > 0, "a positive real number"
            ),
        },
        "adaptive": {
            "partition_bytes": (
                lambda v: _is_real(v) and v >= 0, "a real number >= 0"
            ),
            "review_every": _SIZE,
            "min_recovery_gain": (
                lambda v: _is_real(v) and 0 <= v <= 1,
                "a real number in [0, 1]",
            ),
            "seed": _SEED,
        },
        "async": {},
    },
}
DATASET_KINDS = tuple(_SECTION_KEYS["dataset"])
MODEL_KINDS = tuple(_SECTION_KEYS["model"])


def _section_problems(name: str, noun: str, params: Mapping, kind: Any) -> List[str]:
    """What is wrong with the ``name`` section of kind ``kind`` whose
    keys (``kind`` aside) are ``params``, by :data:`_SECTION_KEYS`:
    the kind, then each key, well typed.  ``noun`` is what the
    section's kind is the kind of, in the messages."""
    kinds = _SECTION_KEYS[name]
    accepted = kinds.get(kind) if isinstance(kind, str) else None
    if accepted is None:
        return [
            f"unknown {noun} kind {kind!r}{did_you_mean(kind, kinds)} "
            f"(known kinds: {', '.join(kinds)})"
        ]
    problems = []
    for key, value in params.items():
        if key not in accepted:
            problems.append(
                f"{name}: {noun} {kind!r} got unknown parameter "
                f"{key!r}{did_you_mean(key, accepted)} "
                f"(accepted: {', '.join(accepted) or '(none)'})"
            )
            continue
        valid, what = accepted[key]
        if not valid(value):
            problems.append(f"{name}.{key} must be {what}, got {value!r}")
    return problems


def _int_problems(field_name: str, value: Any, minimum: int) -> List[str]:
    if not _is_int(value, minimum):
        bound = (
            "a positive integer" if minimum == 1
            else f"an integer >= {minimum}"
        )
        return [f"{field_name} must be {bound}, got {value!r}"]
    return []


def _admission_problems(spec: "ExperimentSpec") -> List[str]:
    """Why ``spec`` cannot run, as messages (empty when it can).

    Safe on untrusted payloads.  The environment sections are built,
    through the constructors :class:`~repro.engine.plan.EnginePlan`
    calls (:func:`~repro.env.registry.model_spec_problems`), so their
    names, nesting and values are checked once, where they are used;
    nothing else is built, and the rest is arithmetic.  Types come
    first (NumPy would reject a bad size or seed from inside
    :class:`~repro.engine.plan.EnginePlan` with no field name, and a
    bool or a float would run under its own fingerprint), and so are
    ``learning_rate``, ``loss_threshold`` and ``scheme_params.seed``,
    which would otherwise fail only inside the run; the paper's
    constraints on ``n``, ``c`` and ``w`` are checked only where their
    fields are well typed.  ``name`` must be a string; ``scheme`` and
    ``backend`` must name an entry of their closed tables, and
    ``dataset``, ``model`` and ``rule_params`` must be mappings whose
    kind (``rule`` for ``rule_params``; a ``kind`` key, defaulted as
    the plan defaults it, for the others) is one the plan builds and
    whose keys are ones that kind reads, well typed
    (:data:`_SECTION_KEYS`).  Placement feasibility goes through the
    placement registry's hooks.
    """
    problems: List[str] = []
    for name in (
        "num_workers", "partitions_per_worker", "max_steps",
        "smoothing_window",
    ):
        problems += _int_problems(name, getattr(spec, name), minimum=1)
    if spec.wait_for is not None:
        problems += _int_problems("wait_for", spec.wait_for, minimum=1)
    problems += _int_problems("seed", spec.seed, minimum=0)
    if not (_is_real(spec.learning_rate) and spec.learning_rate > 0):
        problems.append(
            "learning_rate must be a positive real number, "
            f"got {spec.learning_rate!r}"
        )
    if spec.loss_threshold is not None and not _is_real(spec.loss_threshold):
        problems.append(
            "loss_threshold must be null or a real number, "
            f"got {spec.loss_threshold!r}"
        )
    if not isinstance(spec.name, str):
        problems.append(f"name must be a string, got {spec.name!r}")
    for table, value in (
        (SCHEME_REGISTRY, spec.scheme), (BACKEND_REGISTRY, spec.backend),
    ):
        try:
            table.resolve(value)
        except ConfigurationError as exc:
            problems.append(str(exc))
    scheme_known = (
        isinstance(spec.scheme, str) and spec.scheme in SCHEME_REGISTRY
    )
    for name, section, default in (
        ("dataset", spec.dataset, _DEFAULT_DATASET),
        ("model", spec.model, _DEFAULT_MODEL),
    ):
        if isinstance(section, Mapping):
            params = dict(section)
            kind = params.pop("kind", default["kind"])
            problems += _section_problems(name, name, params, kind)
        else:
            problems.append(
                f"{name} must be a {{'kind': ...}} mapping, got {section!r}"
            )
    for name in ("scheme_params", "rule_params"):
        if not isinstance(getattr(spec, name), Mapping):
            problems.append(
                f"{name} must be a mapping, got {getattr(spec, name)!r}"
            )
    if not isinstance(spec.rule, str):
        problems.append(f"rule must be a string, got {spec.rule!r}")
    else:
        problems += _section_problems(
            "rule_params", "rule",
            spec.rule_params if isinstance(spec.rule_params, Mapping) else {},
            spec.rule,
        )
    if scheme_known and isinstance(spec.scheme_params, Mapping):
        unknown_scheme = _unknown_scheme_params(spec.scheme, spec.scheme_params)
        if unknown_scheme is not None:
            problems.append(unknown_scheme)
    if isinstance(spec.scheme_params, Mapping) and "seed" in spec.scheme_params:
        problems += _int_problems(
            "scheme_params.seed", spec.scheme_params["seed"], minimum=0
        )
    # The async rule runs on the async-arrivals backend (``flat``, the
    # default, selects it); no other rule can.
    if (
        spec.backend not in ("flat", "async-arrivals")
        if spec.rule == "async"
        else spec.backend == "async-arrivals"
    ):
        problems.append(
            f"backend {spec.backend!r} cannot run rule {spec.rule!r}: "
            "the async rule takes backend 'flat' (the default) or "
            "'async-arrivals', and every other rule any backend but "
            "'async-arrivals'"
        )

    scheme, n, c, w = (
        spec.scheme, spec.num_workers, spec.partitions_per_worker,
        spec.wait_for,
    )
    waits = scheme_known and scheme.startswith("is-")
    if w is None and waits:
        # IS-SGD and every IS-GC scheme wait for w workers each round.
        problems.append(
            f"scheme {scheme!r} waits for w workers each round; "
            "set wait_for (1 <= w <= n)"
        )
    elif w is None and spec.rule == "adaptive":
        problems.append(
            "rule 'adaptive' ranks placements for a target w; "
            "set wait_for (1 <= w <= n)"
        )
    if _is_int(n):
        c_known = _is_int(c)
        if c_known and c > n:
            problems.append(
                "partitions_per_worker must satisfy 1 <= c <= n "
                f"(each worker stores c of the n partitions); got c={c}, "
                f"n={n}"
            )
            c_known = False
        if isinstance(spec.scheme_params, Mapping):
            # What the scheme forwards to its placement family.
            params = {
                key: value for key, value in spec.scheme_params.items()
                if key not in _COMMON_SCHEME_PARAMS
            }
            family = SCHEME_REGISTRY[scheme] if scheme_known else None
            if scheme == "is-gc":
                family = params.pop("placement", family)
            if family is not None:
                problems += placement_spec_problems(
                    family, num_workers=n,
                    partitions_per_worker=c if c_known else None,
                    params=params,
                )
        if w is not None and _is_int(w) and w > n:
            # Theorems 10/11 bound α(G[W']) for 1 <= w <= n only.
            problems.append(
                f"wait_for must satisfy 1 <= w <= n = {n} (the "
                "Theorem 10/11 recovery bounds are defined only there, "
                "and more than n workers can never arrive); "
                f"got {w!r}"
            )

    for layer in LAYERS:
        section = getattr(spec, layer)
        if section is not None and not isinstance(section, (str, Mapping)):
            problems.append(
                f"spec section {layer!r} must be a kind string or a "
                f"{{'kind': ...}} mapping, got {section!r}"
            )
            continue
        if not section:
            continue  # an empty section asks for the layer's default
        if layer == "delay":
            section = _delay_section(section)
        problems += model_spec_problems(layer, section, section=layer)
    # failure:/contention: are round models of the ClusterSimulator,
    # which the async-arrivals backend does not run.
    unsupported = [
        name for name in ("failure", "contention") if getattr(spec, name)
    ]
    if spec.rule == "async" and unsupported:
        problems.append(
            f"backend 'async-arrivals' does not simulate the "
            f"{'/'.join(unsupported)} spec section(s); "
            "use a synchronous rule on the flat or actor backend"
        )
    return problems


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serialisable description of one training run.

    Construction is admission: a spec that cannot run (a field of the
    wrong type, CR with ``c >= n``, FR without ``c | n``, HR outside
    Theorems 5-7, ``wait_for`` outside ``1 <= w <= n``, an environment
    section that does not build, ...) raises one
    :class:`ConfigurationError` naming every problem, joined by
    ``"; "``.  So ``from_dict``,
    ``from_file``, ``repro run``, job submission and checkpoint
    recovery all refuse the same specs with the same text.
    """

    name: str
    scheme: str
    num_workers: int
    #: ``c``.  HR derives its own ``c = c1 + c2 >= 2``, so for HR the
    #: default 1 reads as "not given" and any other value must equal
    #: ``c1 + c2``.
    partitions_per_worker: int = 1
    wait_for: Optional[int] = None
    backend: str = "flat"
    rule: str = "sync"
    max_steps: int = 100
    loss_threshold: Optional[float] = None
    smoothing_window: int = 5
    learning_rate: float = 0.3
    seed: int = 0
    dataset: Mapping[str, Any] = field(
        default_factory=lambda: dict(_DEFAULT_DATASET)
    )
    model: Mapping[str, Any] = field(
        default_factory=lambda: dict(_DEFAULT_MODEL)
    )
    delay: Mapping[str, Any] = field(
        default_factory=lambda: dict(_DEFAULT_DELAY)
    )
    compute: Mapping[str, Any] = field(default_factory=dict)
    network: Mapping[str, Any] = field(default_factory=dict)
    failure: Mapping[str, Any] = field(default_factory=dict)
    contention: Mapping[str, Any] = field(default_factory=dict)
    scheme_params: Mapping[str, Any] = field(default_factory=dict)
    rule_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        problems = _admission_problems(self)
        if problems:
            raise ConfigurationError("; ".join(problems))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-ready dict (the inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a parsed JSON/TOML mapping.

        Unknown keys raise :class:`ConfigurationError` with a
        did-you-mean hint, so a typoed ``wiat_for`` in a submission
        payload fails at admission instead of silently defaulting; a
        payload without a required field (``name``, ``scheme``,
        ``num_workers``) or that is no mapping at all raises it too.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"spec must be a mapping, got {type(data).__name__}"
            )
        fields = dataclasses.fields(cls)
        known = {f.name for f in fields}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown spec field{'s' if len(unknown) != 1 else ''}: "
                + _did_you_mean(unknown, known)
            )
        missing = [
            f.name for f in fields
            if f.name not in data
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigurationError(
                f"missing spec field{'s' if len(missing) != 1 else ''}: "
                + ", ".join(missing)
            )
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: "str | pathlib.Path") -> "ExperimentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file.

        The public file API: ``repro run``, job submission payloads
        (``repro submit``) and :meth:`to_file` all share this format.
        Validation failures raise :class:`ConfigurationError` with
        did-you-mean hints for unknown field names.
        """
        path = pathlib.Path(path)
        if not path.exists():
            raise ConfigurationError(f"spec file not found: {path}")
        if path.suffix == ".json":
            try:
                data = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"spec file {path} is not valid JSON: {exc}"
                ) from exc
        elif path.suffix == ".toml":
            try:
                import tomllib
            except ImportError as exc:  # pragma: no cover - 3.10 only
                raise ConfigurationError(
                    "TOML specs need Python >= 3.11 (tomllib); "
                    "use a JSON spec instead"
                ) from exc
            try:
                data = tomllib.loads(path.read_text())
            except tomllib.TOMLDecodeError as exc:
                raise ConfigurationError(
                    f"spec file {path} is not valid TOML: {exc}"
                ) from exc
        else:
            raise ConfigurationError(
                f"spec files must be .json or .toml, got {path.suffix!r}"
            )
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"spec file {path} must contain a mapping"
            )
        return cls.from_dict(data)

    def to_file(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Write the spec to ``path`` (format chosen by suffix).

        ``.json`` writes canonical indented JSON; ``.toml`` writes a
        TOML document :meth:`from_file` reads back to an equal spec
        (``None``-valued optionals are omitted — TOML has no null —
        and re-applied as defaults on load).  Returns the path.
        """
        path = pathlib.Path(path)
        if path.suffix == ".json":
            text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
            path.write_text(text + "\n")
        elif path.suffix == ".toml":
            path.write_text(_spec_toml(self.to_dict()))
        else:
            raise ConfigurationError(
                f"spec files must be .json or .toml, got {path.suffix!r}"
            )
        return path

    def fingerprint(self) -> str:
        """Content digest of this spec, stable across processes.

        A deterministic function of every field (canonical sorted-key
        JSON), mirroring :meth:`Placement.fingerprint`; it identifies
        a run's full configuration in :class:`~repro.engine.report.RunReport`
        payloads, serve-job results and every
        :class:`~repro.engine.state.EngineState` an
        :class:`~repro.engine.plan.EnginePlan`'s engine snapshots.  The
        text is :meth:`to_dict`'s, without its deep copy.
        """
        canonical = json.dumps(
            {f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
            sort_keys=True,
            separators=(",", ":"),
        )
        h = hashlib.blake2b(digest_size=16)
        h.update(canonical.encode())
        return h.hexdigest()


def _toml_scalar(value: Any) -> str:
    """Render one TOML value (the subset spec fields use)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    if isinstance(value, Mapping):  # nested model specs → inline tables
        rows = ", ".join(
            f"{k} = {_toml_scalar(v)}" for k, v in value.items()
            if v is not None
        )
        return "{" + rows + "}"
    raise ConfigurationError(
        f"cannot write {type(value).__name__} value {value!r} to TOML"
    )


def _spec_toml(data: Dict[str, Any]) -> str:
    """A spec dict as TOML: scalar fields first, mappings as tables.

    ``None`` values are dropped (TOML has no null); they are optional
    spec fields whose defaults re-apply on :meth:`ExperimentSpec.from_file`.
    """
    scalars, tables = [], []
    for key, value in data.items():
        if value is None:
            continue
        if isinstance(value, Mapping):
            if value:
                rows = "\n".join(
                    f"{k} = {_toml_scalar(v)}"
                    for k, v in value.items()
                    if v is not None
                )
                tables.append(f"[{key}]\n{rows}")
        else:
            scalars.append(f"{key} = {_toml_scalar(value)}")
    return "\n".join(scalars) + "\n\n" + "\n\n".join(tables) + "\n"


#: names that moved to plan.py with the spec → engine assembly.
_PLAN_NAMES = ("build_engine", "run_spec", "run_spec_variation")


def __getattr__(name: str) -> Any:
    """Bind :data:`_PLAN_NAMES` on first use: plan.py imports this
    module, so a module-level import here would close a cycle."""
    if name not in _PLAN_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import plan

    globals().update({moved: getattr(plan, moved) for moved in _PLAN_NAMES})
    return globals()[name]

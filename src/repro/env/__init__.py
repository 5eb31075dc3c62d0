"""Environment layer: named straggler scenarios behind one registry.

Mirrors :mod:`repro.core.scheme`'s placement registry for the
environment side of an experiment — see :mod:`repro.env.registry` for
the catalogue machinery and :mod:`repro.env.environment` for the
composite :class:`Environment` object.  ``repro environments`` lists
the registered families; ``docs/environments.md`` is the catalogue.
"""

from .environment import Environment
from .registry import (
    ENV_REGISTRY,
    LAYERS,
    ModelFamily,
    delay_model_from,
    make_compute_model,
    make_contention_model,
    make_delay_model,
    make_failure_model,
    make_model,
    make_network_model,
    model_fingerprint,
    model_from,
    model_spec_problems,
    register_compute,
    register_contention,
    register_delay,
    register_failure,
    register_network,
    registered_models,
    resolve_model,
    spec_of,
)

__all__ = [
    "ENV_REGISTRY",
    "Environment",
    "LAYERS",
    "ModelFamily",
    "delay_model_from",
    "make_compute_model",
    "make_contention_model",
    "make_delay_model",
    "make_failure_model",
    "make_model",
    "make_network_model",
    "model_fingerprint",
    "model_from",
    "model_spec_problems",
    "register_compute",
    "register_contention",
    "register_delay",
    "register_failure",
    "register_network",
    "registered_models",
    "resolve_model",
    "spec_of",
]

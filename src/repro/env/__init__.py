"""Environment layer: named straggler scenarios behind one table.

Mirrors :mod:`repro.core.scheme`'s placement registry for the
environment side of an experiment — see :mod:`repro.env.registry` for
the table of families, one row per family, and
:mod:`repro.env.environment` for the composite :class:`Environment`
object.  ``repro environments`` lists the families;
``docs/environments.md`` is the catalogue.
"""

from .environment import Environment
from .registry import (
    ENV_REGISTRY,
    LAYERS,
    ModelFamily,
    make_model,
    model_fingerprint,
    model_from,
    model_spec,
    model_spec_problems,
    registered_models,
    resolve_model,
)

__all__ = [
    "ENV_REGISTRY",
    "Environment",
    "LAYERS",
    "ModelFamily",
    "make_model",
    "model_fingerprint",
    "model_from",
    "model_spec",
    "model_spec_problems",
    "registered_models",
    "resolve_model",
]

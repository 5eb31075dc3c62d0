"""The :class:`Environment` composite: one object per straggler scenario.

An experiment's environment is five coordinated layers — delay,
failure, compute, network, contention — that before this module every
caller wired by hand.  :class:`Environment` bundles them into one
describable, content-fingerprintable, resettable unit:

* build it from spec sections (``Environment.from_sections``), from
  already-built models, or any mix — each layer accepts a model
  instance, a kind string, or a ``{"kind": ..., **params}`` mapping;
* :meth:`describe` renders the catalogue view, :meth:`fingerprint`
  digests the canonical spec (the sweep-cache key discipline of
  :meth:`repro.core.scheme.PlacementScheme.fingerprint`);
* :meth:`reset` rewinds stateful delay/failure models so a replay
  reproduces the run;
* :meth:`simulator` binds the environment to a
  :class:`~repro.simulation.ClusterSimulator` in one call.

Spec sections are validated before anything is built, per layer, by
:func:`~repro.env.registry.model_spec_problems` (spec admission calls
it from :class:`~repro.engine.spec.ExperimentSpec`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping

import numpy as np

from ..exceptions import ConfigurationError
from ..simulation.cluster import ClusterSimulator
from .registry import (
    LAYERS,
    compute_model_from,
    contention_model_from,
    delay_model_from,
    failure_model_from,
    network_model_from,
    spec_of,
)


class Environment:
    """Delay + failure + compute + network + contention, as one unit.

    Every layer defaults to its ideal/neutral family (no delay, no
    failures, uniform compute, uniform network, uncontended link), so
    ``Environment()`` is the clean cluster and each section opts into
    one kind of trouble.
    """

    def __init__(
        self,
        *,
        delay: Any = None,
        failure: Any = None,
        compute: Any = None,
        network: Any = None,
        contention: Any = None,
    ):
        self._delay = delay_model_from(delay if delay is not None else "none")
        self._failure = failure_model_from(
            failure if failure is not None else "none"
        )
        self._compute = compute_model_from(
            compute if compute is not None else "uniform"
        )
        self._network = network_model_from(
            network if network is not None else "uniform"
        )
        self._contention = contention_model_from(contention)

    # -- layers ---------------------------------------------------------
    @property
    def delay(self):
        return self._delay

    @property
    def failure(self):
        return self._failure

    @property
    def compute(self):
        return self._compute

    @property
    def network(self):
        return self._network

    @property
    def contention(self):
        return self._contention

    # -- construction helpers ------------------------------------------
    @classmethod
    def from_sections(
        cls, sections: Mapping[str, Any], *, where: str = "environment"
    ) -> "Environment":
        """Build from a ``{layer: spec}`` mapping (unknown layers are
        rejected with the accepted layer names)."""
        unknown = sorted(set(sections) - set(LAYERS))
        if unknown:
            raise ConfigurationError(
                f"{where} has unknown sections "
                f"{', '.join(map(repr, unknown))} "
                f"(layers: {', '.join(LAYERS)})"
            )
        return cls(**{layer: sections.get(layer) for layer in LAYERS})

    # -- the protocol ---------------------------------------------------
    def reset(self) -> None:
        """Rewind stateful delay/failure models (bursty state etc.) so
        a replay under a restored RNG reproduces the run."""
        self._delay.reset()
        self._failure.reset()

    def spec(self) -> Dict[str, Any]:
        """Canonical ``{layer: spec}`` mapping of every layer.

        Registry-built layers reproduce their construction spec
        (``Environment.from_sections(env.spec())`` rebuilds an
        equivalent environment); directly-built models fall back to a
        stable class/state digest.
        """
        return {
            "delay": spec_of(self._delay),
            "failure": spec_of(self._failure),
            "compute": spec_of(self._compute),
            "network": spec_of(self._network),
            "contention": spec_of(self._contention),
        }

    def fingerprint(self) -> str:
        """Content digest of the canonical spec (sha256 hex) — the
        cache-key discipline of placement fingerprints, for sweeps that
        key results by environment."""
        payload = json.dumps(self.spec(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """Human-readable per-layer description."""
        lines = ["Environment:"]
        for layer, section in self.spec().items():
            if section is None:
                lines.append(f"  {layer}: none")
            else:
                rendered = ", ".join(
                    f"{k}={v}" for k, v in section.items() if k != "kind"
                )
                label = section.get("kind", section.get("class", "?"))
                lines.append(
                    f"  {layer}: {label}" + (f" ({rendered})" if rendered else "")
                )
        return "\n".join(lines)

    def simulator(
        self,
        num_workers: int,
        partitions_per_worker: int,
        *,
        gradient_elements: int = 10_000,
        rng: np.random.Generator,
        tracer: Any = None,
    ) -> ClusterSimulator:
        """A :class:`ClusterSimulator` running in this environment."""
        return ClusterSimulator(
            num_workers=num_workers,
            partitions_per_worker=partitions_per_worker,
            environment=self,
            gradient_elements=gradient_elements,
            rng=rng,
            tracer=tracer,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Environment(fingerprint={self.fingerprint()[:12]}...)"

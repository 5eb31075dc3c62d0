"""The :class:`Environment` composite: one object per straggler scenario.

An experiment's environment is five coordinated layers — delay,
failure, compute, network, contention — that before this module every
caller wired by hand.  :class:`Environment` bundles them into one
resettable unit:

* build it from spec sections, from already-built models, or any mix
  — each layer accepts a model instance, a kind string, or a
  ``{"kind": ..., **params}`` mapping, read by
  :func:`~repro.env.registry.model_from`;
* :meth:`reset` rewinds stateful delay/failure models so a replay
  reproduces the run;
* :meth:`simulator` binds the environment to a
  :class:`~repro.simulation.ClusterSimulator` in one call.

Both round simulators (``ClusterSimulator`` and the async-arrivals
backend) take their models from one
:class:`Environment`; the neutral default of each layer is stated once,
in :mod:`repro.env.registry`.

Spec sections are validated before anything is built, per layer, by
:func:`~repro.env.registry.model_spec_problems` (spec admission calls
it from :class:`~repro.engine.spec.ExperimentSpec`).  An environment
is named by its sections, not by its built models: the canonical spec
and fingerprint of a section are
:func:`~repro.env.registry.model_spec` and
:func:`~repro.env.registry.model_fingerprint` of that section.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..exceptions import ConfigurationError
from ..simulation.cluster import ClusterSimulator
from ..straggler.failures import NoFailures
from .registry import delay_model_from, model_from


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
        self._delay = delay_model_from(delay)
        self._failure = model_from("failure", failure)
        self._compute = model_from("compute", compute)
        self._network = model_from("network", network)
        self._contention = model_from("contention", contention)

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

    # -- the protocol ---------------------------------------------------
    def reset(self) -> None:
        """Rewind stateful delay/failure models (bursty state etc.) so
        a replay under a restored RNG reproduces the run."""
        self._delay.reset()
        self._failure.reset()

    def refuse_failures_and_contention(self) -> None:
        """Raise :class:`ConfigurationError` unless the failure and
        contention layers are the neutral ones — for the async-arrivals
        backend, which models neither and would otherwise ignore them."""
        active = [
            layer
            for layer, neutral in (
                ("failure", isinstance(self._failure, NoFailures)),
                ("contention", self._contention is None),
            )
            if not neutral
        ]
        if active:
            raise ConfigurationError(
                "this round simulator models neither failures nor link "
                f"contention; got a non-neutral {'/'.join(active)} layer"
            )

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

"""``backend: actor`` — the paper's Ray round (Sec. VIII-A) — at spec level.

In every scheme comparison Ray's role is ``ray.wait(w)``: which workers
arrive when.  ``backend: actor`` is therefore the flat backend whose
cluster charges the model's parameter count per broadcast and upload;
these tests pin that, its arrival race, and that it trains exactly as
``flat`` does once the message size stops mattering.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.coding import SummationCode
from repro.engine import (
    ExperimentSpec,
    FlatBackend,
    RoundEngine,
    SyncUpdate,
    build_engine,
)
from repro.env import Environment
from repro.exceptions import TrainingError
from repro.simulation import ClusterSimulator, ComputeModel
from repro.training import (
    LogisticRegressionModel,
    SGD,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


N = 4
IDEAL = {"kind": "ideal"}
COMPUTE = {"kind": "uniform", "base": 0.02, "per_partition": 0.02}

#: test kind → (scheme, partitions_per_worker, wait_for).
KINDS = {
    "sync": ("sync-sgd", 1, None),
    "issgd": ("is-sgd", 1, 2),
    "isgc-fr": ("is-gc-fr", 2, 2),
    "isgc-cr": ("is-gc-cr", 2, 2),
}


def _spec(kind="issgd", **over):
    scheme, c, w = KINDS[kind]
    base = dict(
        name=f"actor-{kind}", scheme=scheme, num_workers=N,
        partitions_per_worker=c, wait_for=w, backend="actor",
        max_steps=25, seed=7, compute=COMPUTE,
        delay={"kind": "exponential", "mean": 0.5},
    )
    base.update(over)
    return ExperimentSpec(**base)


class TestActors:
    def test_master_records_steps(self):
        engine = build_engine(_spec())
        engine.run(max_steps=5)
        assert [r.step for r in engine.records] == [0, 1, 2, 3, 4]
        state = engine.snapshot()
        assert state.round_index == 5
        assert "master_step" not in state.backend

    def test_worker_payload_is_strategy_encoding(self):
        engine = build_engine(_spec("isgc-cr"))
        assert isinstance(engine.backend, FlatBackend)
        # Model-sized messages: what tells `actor` from `flat`.
        assert (
            engine.backend.cluster._gradient_elements
            == engine.model.num_parameters
        )
        _, grads = engine.streams.gradients(engine.model, 0)
        execution = engine.backend.execute_round(
            engine, 0, engine.strategy.policy
        )
        placement = engine.strategy.placement
        code = SummationCode(placement)
        assert sorted(execution.payloads) == list(range(N))
        for worker, payload in execution.payloads.items():
            assert payload.shape == (engine.model.num_parameters,)
            own = {p: grads[p] for p in placement.partitions_of(worker)}
            np.testing.assert_array_equal(
                payload, code.encode_worker(worker, own)
            )


class TestRuntimeRuns:
    @pytest.mark.parametrize("kind", ["sync", "issgd", "isgc-fr", "isgc-cr"])
    def test_loss_decreases(self, kind):
        summary = build_engine(_spec(kind)).run(max_steps=40)
        assert summary.loss_curve[-1] < summary.loss_curve[0]

    def test_clock_advances_monotonically(self):
        engine = build_engine(_spec())
        engine.start_run(5)
        times = []
        for _ in range(5):
            engine.step_rounds(1)
            times.append(engine.clock)
        assert times == sorted(times)
        assert times[0] > 0

    def test_stream_count_mismatch(self):
        ds = make_classification(512, 8, num_classes=2, seed=1)
        streams = build_batch_streams(partition_dataset(ds, N, seed=2), 32)
        model = LogisticRegressionModel(8, seed=0)
        with pytest.raises(TrainingError, match="partitions"):
            RoundEngine(
                model, streams, SyncSGDStrategy(N + 1),
                FlatBackend(ClusterSimulator(
                    N + 1,
                    1,
                    Environment(),
                    gradient_elements=model.num_parameters,
                    rng=np.random.default_rng(0),
                )),
                SyncUpdate(SGD(0.3)),
            )

    def test_invalid_max_steps(self):
        with pytest.raises(TrainingError):
            build_engine(_spec()).run(max_steps=0)


class TestEquivalenceWithFlatTrainer:
    """On an ideal network message size costs nothing, so ``actor`` and
    ``flat`` must agree to the bit."""

    @staticmethod
    def _pair(kind):
        spec = _spec(kind, network=IDEAL)
        engines = []
        for backend in ("actor", "flat"):
            engine = build_engine(dataclasses.replace(spec, backend=backend))
            engines.append((engine, engine.run(spec.max_steps)))
        return engines

    @pytest.mark.parametrize("kind", ["sync", "issgd", "isgc-fr", "isgc-cr"])
    def test_loss_curves_match(self, kind):
        (actor, actor_summary), (flat, flat_summary) = self._pair(kind)
        assert actor_summary.loss_curve == flat_summary.loss_curve
        assert actor_summary.total_sim_time == flat_summary.total_sim_time
        np.testing.assert_array_equal(
            actor.model.get_parameters(), flat.model.get_parameters()
        )

    def test_recovery_fractions_match(self):
        (actor, _), (flat, _) = self._pair("isgc-cr")
        assert actor.records == flat.records


class TestActorRace:
    """The actor round is its cluster simulator's ``arrival_race``:
    earliest first, ties by worker id."""

    @pytest.mark.parametrize(
        "delays, expected, accepted",
        [
            # Every worker ties: worker id order.
            ([0.0, 0.0, 0.0, 0.0], [0, 1, 2, 3], [0, 1]),
            # Two pairs of ties: 1 and 3 at zero delay, then 0 and 2.
            ([0.5, 0.0, 0.5, 0.0], [1, 3, 0, 2], [1, 3]),
            ([0.0, 0.5, 0.0, 0.5], [0, 2, 1, 3], [0, 2]),
        ],
    )
    def test_tied_arrivals_follow_worker_id(self, delays, expected, accepted):
        engine = build_engine(_spec(
            network=IDEAL,
            delay={"kind": "trace-replay", "delays": [delays]},
        ))
        execution = engine.backend.execute_round(
            engine, 0, engine.strategy.policy
        )
        assert list(execution.arrivals) == expected
        assert sorted(execution.accepted) == accepted
        compute_t = ComputeModel(0.02, 0.02).step_time(1)
        for worker, delay in enumerate(delays):
            assert execution.arrivals[worker] == compute_t + delay

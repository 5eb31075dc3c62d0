"""Failure-injection tests: crashes, dropouts, and training through them."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.core import CyclicRepetition
from repro.env import Environment, model_from, registered_models
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation import (
    BestEffortWaitForK,
    ClusterSimulator,
    ComputeModel,
    ContendedUploadModel,
    NetworkModel,
    WaitForK,
)
from repro.straggler import (
    CompositeFailures,
    NoDelay,
    NoFailures,
    PermanentCrashes,
    TransientDropouts,
)
from repro.training import (
    ISGCStrategy,
    LogisticRegressionModel,
    SGD,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


class TestFailureModels:
    def test_no_failures(self, rng):
        model = NoFailures()
        assert all(model.is_alive(w, s, rng) for w in range(4) for s in range(4))

    def test_permanent_crash_from_step(self, rng):
        model = PermanentCrashes([1], at_step=3)
        assert model.is_alive(1, 2, rng)
        assert not model.is_alive(1, 3, rng)
        assert not model.is_alive(1, 99, rng)
        assert model.is_alive(0, 99, rng)

    def test_permanent_crash_validation(self):
        with pytest.raises(ConfigurationError):
            PermanentCrashes([0], at_step=-1)

    def test_transient_dropout_rate(self, rng):
        model = TransientDropouts(0.25)
        alive = sum(model.is_alive(0, s, rng) for s in range(10_000))
        assert alive / 10_000 == pytest.approx(0.75, abs=0.02)

    def test_transient_validation(self):
        with pytest.raises(ConfigurationError):
            TransientDropouts(1.0)

    def test_composite(self, rng):
        model = CompositeFailures([
            PermanentCrashes([0]), PermanentCrashes([1]),
        ])
        assert not model.is_alive(0, 0, rng)
        assert not model.is_alive(1, 0, rng)
        assert model.is_alive(2, 0, rng)

    def test_composite_validation(self):
        with pytest.raises(ConfigurationError):
            CompositeFailures([])


#: One spec per registered failure family, plus the composites whose
#: short-circuit shapes the stream: two dropouts, a crash then a dropout.
ALIVE_ROUND_CASES = {
    "none": {"kind": "none"},
    "permanent-crashes": {
        "kind": "permanent-crashes", "crashed_workers": [1, 4, 6],
        "at_step": 2,
    },
    "transient-dropouts": {"kind": "transient-dropouts", "probability": 0.3},
    "composite": {
        "kind": "composite",
        "models": [
            {"kind": "transient-dropouts", "probability": 0.2},
            {"kind": "transient-dropouts", "probability": 0.4},
        ],
    },
    "composite-crash-then-dropout": {
        "kind": "composite",
        "models": [
            {"kind": "permanent-crashes", "crashed_workers": [0, 3]},
            {"kind": "transient-dropouts", "probability": 0.5},
        ],
    },
}


class TestAliveRound:
    """``alive_round`` is the ``is_alive`` loop in worker order: same
    ids, same generator end state."""

    def test_every_registered_family_has_a_case(self):
        assert set(registered_models("failure")) <= set(ALIVE_ROUND_CASES)

    @pytest.mark.parametrize("case", sorted(ALIVE_ROUND_CASES))
    def test_matches_is_alive_loop(self, case):
        model = model_from("failure", ALIVE_ROUND_CASES[case])
        ours, loop = np.random.default_rng(3), np.random.default_rng(3)
        for step in range(6):
            for n in (1, 8, 24):
                expected = [
                    w for w in range(n) if model.is_alive(w, step, loop)
                ]
                got = model.alive_round(n, step, ours)
                assert got == expected
                assert all(type(w) is int for w in got)
        assert ours.bit_generator.state == loop.bit_generator.state


class TestSimulatorWithFailures:
    def _sim(self, failures, contention=None):
        return ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            environment=Environment(
                delay=NoDelay(),
                failure=failures,
                compute=ComputeModel(0.1, 0.1),
                network=NetworkModel(latency=0.0, bandwidth=float("inf")),
                contention=contention,
            ),
            rng=np.random.default_rng(0),
        )

    def test_crashed_workers_never_arrive(self):
        sim = self._sim(PermanentCrashes([0, 1]))
        result = sim.run_round(0, BestEffortWaitForK(4))
        assert set(result.arrivals) == {2, 3}

    def test_strict_wait_deadlocks_on_crash(self):
        """Sync-SGD semantics cannot survive a crash — the failure mode
        arbitrary ignorance exists to avoid."""
        sim = self._sim(PermanentCrashes([0]))
        with pytest.raises(SimulationError):
            sim.run_round(0, WaitForK(4))

    def test_best_effort_clamps(self):
        sim = self._sim(PermanentCrashes([0, 1, 2]))
        result = sim.run_round(0, BestEffortWaitForK(4))
        assert result.outcome.accepted_workers == frozenset({3})

    def test_all_failed_raises(self):
        sim = self._sim(PermanentCrashes([0, 1, 2, 3]))
        with pytest.raises(SimulationError, match="every worker failed"):
            sim.run_round(0, BestEffortWaitForK(1))

    def test_contended_link_round(self):
        sim = self._sim(
            NoFailures(),
            contention=ContendedUploadModel(capacity_bytes_per_s=80_000),
        )
        # 4 × 40 kB flows share 80 kB/s: all finish 2 s after compute.
        result = sim.run_round(0, BestEffortWaitForK(4))
        assert result.step_time == pytest.approx(0.3 + 2.0)

    def test_contention_vs_ideal_ordering(self):
        contended = self._sim(
            NoFailures(),
            contention=ContendedUploadModel(capacity_bytes_per_s=80_000),
        )
        ideal = self._sim(NoFailures())
        t_contended = contended.run_round(0, BestEffortWaitForK(4)).step_time
        t_ideal = ideal.run_round(0, BestEffortWaitForK(4)).step_time
        assert t_contended > t_ideal


class TestTrainingThroughFailures:
    def _trainer(self, failures, wait_for=2):
        n = 4
        ds = make_classification(256, 6, num_classes=2, separation=3.0, seed=0)
        streams = build_batch_streams(partition_dataset(ds, n, seed=1), 16, seed=2)
        strategy = ISGCStrategy(
            CyclicRepetition(n, 2), wait_for=wait_for,
            rng=np.random.default_rng(0),
            policy=BestEffortWaitForK(wait_for),
        )
        cluster = ClusterSimulator(
            n,
            2,
            Environment(
                delay=NoDelay(),
                failure=failures,
                compute=ComputeModel(0.05, 0.05),
                network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            ),
            rng=np.random.default_rng(1),
        )
        return sync_engine(
            LogisticRegressionModel(6, seed=0), streams, strategy, cluster,
            SGD(0.3), eval_data=ds,
        )

    def test_isgc_survives_permanent_crash(self):
        trainer = self._trainer(PermanentCrashes([0], at_step=5), wait_for=3)
        summary = trainer.run(max_steps=30)
        assert summary.num_steps == 30
        assert summary.loss_curve[-1] < summary.loss_curve[0]
        # After the crash only 3 workers can ever arrive.
        late = [r for r in trainer.records if r.step >= 5]
        assert all(r.num_available == 3 for r in late)

    def test_isgc_survives_dropouts(self):
        trainer = self._trainer(TransientDropouts(0.3), wait_for=3)
        summary = trainer.run(max_steps=30)
        assert summary.num_steps == 30
        assert all(r.num_recovered >= 2 for r in trainer.records)

    def test_sync_sgd_dies_on_crash(self):
        n = 4
        ds = make_classification(256, 6, num_classes=2, seed=0)
        streams = build_batch_streams(partition_dataset(ds, n, seed=1), 16, seed=2)
        cluster = ClusterSimulator(
            n,
            1,
            Environment(
                delay=NoDelay(),
                failure=PermanentCrashes([2], at_step=0),
            ),
            rng=np.random.default_rng(0),
        )
        trainer = sync_engine(
            LogisticRegressionModel(6, seed=0), streams, SyncSGDStrategy(n),
            cluster, SGD(0.3), eval_data=ds,
        )
        with pytest.raises(SimulationError):
            trainer.run(max_steps=5)

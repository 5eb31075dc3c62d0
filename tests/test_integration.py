"""Cross-module integration tests.

These exercise whole pipelines (placement → code → simulator → decoder →
optimizer) and the equivalences the paper asserts between schemes.
"""

import numpy as np
import pytest

from conftest import sync_engine
from repro.codes import ClassicGradientCode
from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    HybridRepetition,
    SummationCode,
    decoder_for,
)
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel, WaitForK
from repro.straggler import (
    DelayTrace,
    ExponentialDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
    TraceReplayModel,
)
from repro.training import (
    ISGCStrategy,
    ISSGDStrategy,
    SGD,
    SoftmaxRegressionModel,
    SyncSGDStrategy,
    build_batch_streams,
    make_classification,
    partition_dataset,
)


def _training_setup(strategy, trace, lr=0.3, n=4, seed=0):
    ds = make_classification(600, 10, num_classes=3, separation=3.0, seed=5)
    parts = partition_dataset(ds, n, seed=6)
    streams = build_batch_streams(parts, batch_size=32, seed=7)
    model = SoftmaxRegressionModel(10, 3, seed=0)
    cluster = ClusterSimulator(
        num_workers=n,
        partitions_per_worker=strategy.placement.partitions_per_worker,
        compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=TraceReplayModel(trace),
        rng=np.random.default_rng(seed),
    )
    return sync_engine(model, streams, strategy, cluster, SGD(lr), eval_data=ds)


@pytest.fixture
def trace():
    return DelayTrace.record(
        ExponentialDelay(1.0), num_workers=4, num_steps=200,
        rng=np.random.default_rng(11),
    )


class TestSchemeEquivalences:
    def test_classic_gc_equals_sync_sgd_updates(self, trace):
        """Both recover the exact full gradient; with identical batches
        the loss curves must match to numerical precision."""
        gc = _training_setup(
            ClassicGCStrategyFactory(), trace
        )
        sync = _training_setup(SyncSGDStrategy(4), trace)
        s_gc = gc.run(max_steps=25)
        s_sync = sync.run(max_steps=25)
        np.testing.assert_allclose(
            np.array(s_gc.loss_curve), np.array(s_sync.loss_curve), atol=1e-6
        )

    def test_isgc_w_equals_n_matches_sync(self, trace):
        isgc = _training_setup(
            ISGCStrategy(FractionalRepetition(4, 2), wait_for=4,
                         rng=np.random.default_rng(2)),
            trace,
        )
        sync = _training_setup(SyncSGDStrategy(4), trace)
        np.testing.assert_allclose(
            np.array(isgc.run(max_steps=25).loss_curve),
            np.array(sync.run(max_steps=25).loss_curve),
            atol=1e-8,
        )

    def test_isgc_c1_equals_issgd(self, trace):
        """With c = 1 IS-GC degenerates to IS-SGD exactly."""
        isgc = _training_setup(
            ISGCStrategy(CyclicRepetition(4, 1), wait_for=2,
                         rng=np.random.default_rng(3)),
            trace,
        )
        issgd = _training_setup(ISSGDStrategy(4, 2), trace)
        np.testing.assert_allclose(
            np.array(isgc.run(max_steps=25).loss_curve),
            np.array(issgd.run(max_steps=25).loss_curve),
            atol=1e-8,
        )


def ClassicGCStrategyFactory():
    from repro.training import ClassicGCStrategy
    return ClassicGCStrategy(CyclicRepetition(4, 2), rng=np.random.default_rng(1))


class TestStepTimeOrdering:
    def test_wait_less_is_never_slower(self, trace):
        """Per-step time is monotone in w on identical delay traces."""
        times = {}
        for w in (1, 2, 3, 4):
            strat = ISGCStrategy(
                CyclicRepetition(4, 2), wait_for=w,
                rng=np.random.default_rng(4),
            )
            trainer = _training_setup(strat, trace)
            summary = trainer.run(max_steps=30)
            times[w] = summary.avg_step_time
        assert times[1] <= times[2] <= times[3] <= times[4]


class TestEnduringStraggler:
    def test_recovery_exceeds_iid_expectation(self):
        """Sec. VIII-C: a persistent straggler is always the ignored one,
        so IS-GC at w = n-1 recovers ~100% instead of the uniform-subset
        expectation."""
        n = 4
        placement = CyclicRepetition(n, 2)
        slow = PersistentStragglers([1], ShiftedExponentialDelay(50.0, 0.0))
        trace = DelayTrace.record(slow, n, 50, np.random.default_rng(0))
        strat = ISGCStrategy(placement, wait_for=3, rng=np.random.default_rng(5))
        trainer = _training_setup(strat, trace)
        summary = trainer.run(max_steps=40)
        # W' is always {0, 2, 3}: workers 2,3 are non-conflicting →
        # all 4 partitions recovered every step.
        assert summary.avg_recovery_fraction == pytest.approx(1.0)


class TestEndToEndPipelineConsistency:
    @pytest.mark.parametrize("placement", [
        FractionalRepetition(6, 2),
        CyclicRepetition(6, 2),
        CyclicRepetition(7, 3),
        HybridRepetition(8, 2, 2, 2),
    ])
    def test_simulated_round_decodes_cleanly(self, placement):
        """Random rounds: whatever workers the policy accepts, decode
        succeeds and the decoded vector equals the recovered-set sum."""
        n = placement.num_workers
        rng = np.random.default_rng(9)
        code = SummationCode(placement)
        decoder = decoder_for(placement, rng=rng)
        sim = ClusterSimulator(
            num_workers=n,
            partitions_per_worker=placement.partitions_per_worker,
            delay_model=ExponentialDelay(1.0),
            rng=rng,
        )
        grads = {p: rng.normal(size=5) for p in range(n)}
        payloads = code.encode(grads)
        for step in range(20):
            w = int(rng.integers(1, n + 1))
            result = sim.run_round(step, WaitForK(w))
            decision = decoder.decode(result.outcome.accepted_workers)
            decoded = code.decode_sum(decision, payloads)
            expected = sum(grads[p] for p in decision.recovered_partitions)
            np.testing.assert_allclose(decoded, expected, atol=1e-9)

    def test_gc_and_isgc_share_placement_semantics(self):
        """Classic GC and IS-GC on the same CR placement agree on the
        full-recovery sum when all workers report.  (n must be a multiple
        of c: with n = 5, c = 2 even a maximum independent set covers
        only 4 partitions — full recovery is impossible for IS-GC.)"""
        placement = CyclicRepetition(6, 2)
        rng = np.random.default_rng(3)
        grads = {p: rng.normal(size=4) for p in range(6)}
        gc = ClassicGradientCode(placement, rng=rng)
        summation = SummationCode(placement)
        decoder = decoder_for(placement, rng=rng)
        gc_total = gc.decode(range(6), gc.encode(grads))
        decision = decoder.decode(range(6))
        is_total = summation.decode_sum(decision, summation.encode(grads))
        np.testing.assert_allclose(gc_total, is_total, atol=1e-6)

"""Tests for top-k sparsification with error feedback."""

import numpy as np
import pytest

from conftest import sync_engine
from repro.core import CyclicRepetition
from repro.env import Environment
from repro.exceptions import ConfigurationError
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
from repro.straggler import ExponentialDelay, NoDelay
from repro.training import (
    ISGCStrategy,
    LogisticRegressionModel,
    SGD,
    build_batch_streams,
    make_classification,
    partition_dataset,
)
from repro.training.compression import (
    CompressedISGCStrategy,
    TopKCompressor,
    nonzero_fraction,
)


class TestTopKCompressor:
    def test_keeps_largest_magnitudes(self):
        comp = TopKCompressor(0.25)
        vec = np.array([0.1, -5.0, 0.2, 3.0, -0.3, 0.0, 1.0, 0.4])
        sent = comp.compress(0, vec)
        assert np.count_nonzero(sent) == 2
        assert sent[1] == -5.0 and sent[3] == 3.0

    def test_residual_kept_in_memory(self):
        comp = TopKCompressor(0.25)
        vec = np.array([0.1, -5.0, 0.2, 3.0, -0.3, 0.0, 1.0, 0.4])
        sent = comp.compress(0, vec)
        memory = comp.memory_of(0)
        np.testing.assert_allclose(sent + memory, vec)

    def test_error_feedback_transmits_everything_eventually(self):
        """Constant signal: cumulative sent converges to cumulative input."""
        comp = TopKCompressor(0.25)
        vec = np.array([1.0, 0.5, 0.25, 0.125])
        total_sent = np.zeros(4)
        rounds = 40
        for _ in range(rounds):
            total_sent += comp.compress(0, vec)
        # Per coordinate: sent + final memory == rounds × input.
        np.testing.assert_allclose(
            total_sent + comp.memory_of(0), rounds * vec, atol=1e-12
        )
        # Even the smallest coordinate got through (memory stays bounded).
        assert abs(comp.memory_of(0)).max() < rounds * 0.125

    def test_fraction_one_is_identity(self):
        comp = TopKCompressor(1.0)
        vec = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(comp.compress(0, vec), vec)
        np.testing.assert_allclose(comp.memory_of(0), np.zeros(3))

    def test_keep_count_at_least_one(self):
        assert TopKCompressor(0.001).keep_count(10) == 1

    def test_per_worker_memories_independent(self):
        comp = TopKCompressor(0.5)
        comp.compress(0, np.array([1.0, 0.1]))
        comp.compress(1, np.array([0.2, 2.0]))
        assert comp.memory_of(0)[1] == pytest.approx(0.1)
        assert comp.memory_of(1)[0] == pytest.approx(0.2)

    def test_reset(self):
        comp = TopKCompressor(0.5)
        comp.compress(0, np.array([1.0, 0.1]))
        comp.reset()
        assert comp.memory_of(0) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TopKCompressor(0.0)
        with pytest.raises(ConfigurationError):
            TopKCompressor(1.5)
        comp = TopKCompressor(0.5)
        comp.compress(0, np.zeros(4))
        with pytest.raises(ConfigurationError, match="shape"):
            comp.compress(0, np.zeros(5))


class TestCompressedStrategy:
    def _grads(self, n=4, dim=40, seed=0):
        return np.random.default_rng(seed).normal(size=(n, dim))

    def test_payloads_sparse(self):
        strat = CompressedISGCStrategy(
            CyclicRepetition(4, 2), wait_for=2, fraction=0.1,
            rng=np.random.default_rng(0),
        )
        payloads = strat.encode(self._grads())
        assert nonzero_fraction(payloads) <= 0.1 + 1e-9

    def test_name_includes_fraction(self):
        strat = CompressedISGCStrategy(
            CyclicRepetition(4, 2), 2, fraction=0.25,
        )
        assert "top25%" in strat.name
        assert strat.upload_fraction == 0.25

    def test_spawned_twins_own_their_compressor(self):
        """``spawn``'s contract: what a run mutates is new.  A twin's
        error-feedback memory must not see another twin's uploads."""
        strat = CompressedISGCStrategy(
            CyclicRepetition(4, 2), wait_for=2, fraction=0.1,
            rng=np.random.default_rng(0),
        )
        a, b = strat.spawn(1), strat.spawn(2)
        assert len({id(s.compressor) for s in (strat, a, b)}) == 3
        assert a.compressor.fraction == b.compressor.fraction == 0.1
        fresh = strat.spawn(3).encode(self._grads(seed=1))
        b.encode(self._grads(seed=2))
        np.testing.assert_array_equal(a.encode(self._grads(seed=1)), fresh)
        assert strat.compressor.memory_of(0) is None

    def test_decode_still_works(self):
        strat = CompressedISGCStrategy(
            CyclicRepetition(4, 2), wait_for=2, fraction=0.5,
            rng=np.random.default_rng(0),
        )
        grads = self._grads()
        payloads = strat.encode(grads)
        total, recovered = strat.decode([0, 2], payloads)
        assert recovered == frozenset(range(4))
        assert np.isfinite(total).all()

    def test_training_converges_with_compression(self):
        def build(strategy):
            ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
            parts = partition_dataset(ds, 4, seed=2)
            streams = build_batch_streams(parts, batch_size=32, seed=3)
            cluster = ClusterSimulator(
                4,
                2,
                Environment(
                    delay=NoDelay(),
                    compute=ComputeModel(0.01, 0.01),
                    network=NetworkModel(latency=0.0, bandwidth=float("inf")),
                ),
                rng=np.random.default_rng(0),
            )
            trainer = sync_engine(
                LogisticRegressionModel(8, seed=0), streams, strategy,
                cluster, SGD(0.3), eval_data=ds,
            )
            return trainer.run(max_steps=80)

        compressed = build(CompressedISGCStrategy(
            CyclicRepetition(4, 2), wait_for=4, fraction=0.3,
            rng=np.random.default_rng(1),
        ))
        plain = build(ISGCStrategy(
            CyclicRepetition(4, 2), wait_for=4,
            rng=np.random.default_rng(1),
        ))
        # Compression slows convergence but must not break it.
        assert compressed.loss_curve[-1] < 0.5 * compressed.loss_curve[0]
        assert compressed.final_loss < plain.final_loss * 3 + 0.1

    def test_nonzero_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            nonzero_fraction(np.empty((0, 4)))

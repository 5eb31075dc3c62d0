"""Extension bench — top-k sparsification over IS-GC payloads.

Sweeps the kept fraction and reports the bandwidth/convergence
trade-off: uploads shrink linearly with the fraction while error
feedback keeps training convergent, at a loss-at-budget penalty that
grows as the fraction falls.
"""

import numpy as np
import pytest

from repro.analysis.reporting import Table
from repro.core import CyclicRepetition
from repro.engine import FlatBackend, RoundEngine, SyncUpdate
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
from repro.straggler import NoDelay
from repro.training import (
    CompressedISGCStrategy,
    ISGCStrategy,
    LogisticRegressionModel,
    SGD,
    TopKCompressor,
    build_batch_streams,
    make_classification,
    nonzero_fraction,
    partition_dataset,
)

from conftest import register_report

N, C, W, STEPS = 4, 2, 4, 120


def _run(strategy):
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    streams = build_batch_streams(partition_dataset(ds, N, seed=2), 32, seed=3)
    cluster = ClusterSimulator(
        N, C, compute=ComputeModel(0.01, 0.01),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=NoDelay(), rng=np.random.default_rng(0),
    )
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams, strategy,
        FlatBackend(cluster), SyncUpdate(SGD(0.3)), eval_data=ds,
    )
    return engine.run(max_steps=STEPS)


@pytest.fixture(scope="module")
def compression_report():
    table = Table(
        title=(
            "Extension — top-k sparsified IS-GC payloads "
            f"(n={N}, c={C}, w={W}, {STEPS} steps)"
        ),
        columns=["kept fraction", "upload elems/9", "final loss"],
    )
    rows = []
    for fraction in (1.0, 0.5, 0.2, 0.1):
        if fraction == 1.0:
            strategy = ISGCStrategy(
                CyclicRepetition(N, C), wait_for=W,
                rng=np.random.default_rng(1),
            )
        else:
            strategy = CompressedISGCStrategy(
                CyclicRepetition(N, C), wait_for=W, fraction=fraction,
                rng=np.random.default_rng(1),
            )
        summary = _run(strategy)
        kept = max(1, round(9 * fraction))  # 9 = logistic model params
        table.add_row(fraction, kept, round(summary.final_loss, 4))
        rows.append((fraction, summary.final_loss))
    register_report("extension_compression", table.render())
    return rows


def test_compressor_bench(benchmark, compression_report):
    comp = TopKCompressor(0.01)
    vec = np.random.default_rng(0).normal(size=100_000)
    benchmark(comp.compress, 0, vec)


def test_all_fractions_converge(compression_report):
    for fraction, final_loss in compression_report:
        assert final_loss < 0.5, f"fraction {fraction} failed to converge"


def test_sparsity_measured(compression_report):
    strategy = CompressedISGCStrategy(
        CyclicRepetition(N, C), wait_for=W, fraction=0.2,
        rng=np.random.default_rng(2),
    )
    rng = np.random.default_rng(3)
    grads = {p: rng.normal(size=50) for p in range(N)}
    assert nonzero_fraction(strategy.encode(grads)) <= 0.2 + 1e-9

"""Extension bench — local-update SGD over IS-GC.

Fixed batch budget (τ × rounds = const): larger τ means fewer
communication rounds — hence fewer straggler waits — at the price of
local-update drift.  Under heavy stragglers the simulated wall-clock
drops nearly τ-fold.
"""

import numpy as np
import pytest

from repro.analysis.reporting import Table
from repro.core import CyclicRepetition
from repro.engine import FlatBackend, LocalUpdate, RoundEngine
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
from repro.straggler import ExponentialDelay
from repro.training import (
    ISGCStrategy,
    LogisticRegressionModel,
    build_batch_streams,
    make_classification,
    partition_dataset,
)

from conftest import register_report

N, C, W = 4, 2, 3
BATCH_BUDGET = 48  # per partition


def _run(tau):
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    streams = build_batch_streams(partition_dataset(ds, N, seed=2), 32, seed=3)
    strategy = ISGCStrategy(
        CyclicRepetition(N, C), wait_for=W, rng=np.random.default_rng(0)
    )
    cluster = ClusterSimulator(
        N, C, compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=ExponentialDelay(1.0),
        rng=np.random.default_rng(4),
    )
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams, strategy,
        FlatBackend(cluster), LocalUpdate(local_steps=tau, local_lr=0.3),
        eval_data=ds,
    )
    return engine.run(max_steps=BATCH_BUDGET // tau)


@pytest.fixture(scope="module")
def local_sgd_report():
    table = Table(
        title=(
            "Extension — local-update SGD over IS-GC "
            f"(n={N}, c={C}, w={W}, {BATCH_BUDGET} batches/partition, "
            "exp(1.0s) stragglers)"
        ),
        columns=["τ", "rounds", "total time (s)", "final loss"],
    )
    outcomes = {}
    for tau in (1, 2, 4, 8):
        summary = _run(tau)
        outcomes[tau] = summary
        table.add_row(
            tau, summary.num_steps, round(summary.total_sim_time, 1),
            round(summary.final_loss, 4),
        )
    register_report("extension_local_sgd", table.render())
    return outcomes


def test_local_round_bench(benchmark, local_sgd_report):
    benchmark(_run, 4)


def test_wall_clock_shrinks_with_tau(local_sgd_report):
    times = [local_sgd_report[tau].total_sim_time for tau in (1, 2, 4, 8)]
    assert times == sorted(times, reverse=True)
    # Near-τ-fold: τ=8 should be at least 4× cheaper than τ=1.
    assert times[-1] < times[0] / 4


def test_all_taus_converge(local_sgd_report):
    for tau, summary in local_sgd_report.items():
        assert summary.final_loss < 0.4, f"τ={tau} failed to converge"

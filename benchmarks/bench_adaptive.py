"""Extension bench — online placement adaptation.

Fixed-CR vs fixed-FR vs the adaptive rule on the same workload:
the adaptive run starts on CR (the "wrong" placement at w = 4), pays a
small migration, and finishes with recovery close to the fixed-FR run.
"""

import numpy as np
import pytest

from repro.analysis.reporting import Table
from repro.core import CyclicRepetition, FractionalRepetition
from repro.engine import AdaptiveMigration, FlatBackend, RoundEngine, SyncUpdate
from repro.simulation import ClusterSimulator, ComputeModel, NetworkModel
from repro.straggler import ExponentialDelay
from repro.training import (
    ISGCStrategy,
    LogisticRegressionModel,
    SGD,
    build_batch_streams,
    make_classification,
    partition_dataset,
)

from conftest import register_report

N, C, W, STEPS = 8, 2, 4, 120


def _workload():
    ds = make_classification(512, 8, num_classes=2, separation=3.0, seed=1)
    streams = build_batch_streams(partition_dataset(ds, N, seed=2), 32, seed=3)
    return ds, streams


def _cluster():
    return ClusterSimulator(
        N, C, compute=ComputeModel(0.02, 0.02),
        network=NetworkModel(latency=0.0, bandwidth=float("inf")),
        delay_model=ExponentialDelay(0.5),
        rng=np.random.default_rng(0),
    )


def _fixed(placement, ds, streams):
    strategy = ISGCStrategy(
        placement, wait_for=W, rng=np.random.default_rng(5)
    )
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams, strategy,
        FlatBackend(_cluster()), SyncUpdate(SGD(0.3)), eval_data=ds,
    )
    return engine.run(max_steps=STEPS)


def _adaptive(ds, streams):
    # The decoder and the migration rule draw from one generator.
    rng = np.random.default_rng(6)
    rule = AdaptiveMigration(
        SGD(0.3),
        wait_for=W,
        partition_bytes=1e5,
        network=NetworkModel(latency=0.001, bandwidth=1e9),
        review_every=20,
        rng=rng,
    )
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams,
        ISGCStrategy(CyclicRepetition(N, C), wait_for=W, rng=rng),
        FlatBackend(_cluster()), rule, eval_data=ds,
    )
    summary = engine.run(max_steps=STEPS)
    return rule, summary


@pytest.fixture(scope="module")
def adaptive_report():
    ds, streams = _workload()
    fixed_cr = _fixed(CyclicRepetition(N, C), ds, streams)
    fixed_fr = _fixed(FractionalRepetition(N, C), ds, streams)
    rule, adaptive = _adaptive(ds, streams)

    table = Table(
        title=(
            "Extension — online placement adaptation "
            f"(n={N}, c={C}, w={W}, {STEPS} steps)"
        ),
        columns=["run", "avg recovery %", "final loss", "migrations"],
    )
    table.add_row("fixed CR", f"{100 * fixed_cr.avg_recovery_fraction:.1f}",
                  round(fixed_cr.final_loss, 4), 0)
    table.add_row("fixed FR", f"{100 * fixed_fr.avg_recovery_fraction:.1f}",
                  round(fixed_fr.final_loss, 4), 0)
    table.add_row(
        "adaptive (CR start)",
        f"{100 * adaptive.avg_recovery_fraction:.1f}",
        round(adaptive.final_loss, 4),
        len(rule.migrations),
    )
    register_report("extension_adaptive_placement", table.render())
    return fixed_cr, fixed_fr, adaptive, rule


def test_adaptive_run_bench(benchmark, adaptive_report):
    ds, streams = _workload()
    benchmark(_adaptive, ds, streams)


def test_adaptive_lands_between_cr_and_fr(adaptive_report):
    fixed_cr, fixed_fr, adaptive, rule = adaptive_report
    assert rule.migrations
    assert (
        fixed_cr.avg_recovery_fraction
        < adaptive.avg_recovery_fraction
        <= fixed_fr.avg_recovery_fraction + 1e-9
    )

"""End-to-end observability tests: simulator → tracer → JSONL → aggregates.

The headline invariant: exporting a traced run to JSONL and
re-aggregating the loaded records reproduces the live per-scheme
statistics *exactly* (``==``, not approx) — JSON floats round-trip
binary64 losslessly and aggregation uses the same numpy arithmetic as
the live path.
"""

import numpy as np
import pytest

from repro.env import Environment
from repro.experiments.config import Fig11Config
from repro.experiments.fig11 import run_traced_fig11
from repro.obs import RoundTracer, aggregate_traces, read_traces
from repro.simulation import ClusterSimulator, ComputeModel, WaitForK
from repro.simulation.network import NetworkModel
from repro.straggler import ExponentialDelay

from time_origins import time_origin_problems


SMALL = Fig11Config(
    num_workers=8,
    num_steps=20,
    expected_delays=(1.5,),
    num_delayed_options=(4,),
    wait_values=(4,),
)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "fig11.jsonl"
    points, tracer = run_traced_fig11(SMALL, out_path=path)
    return points, tracer, path


class TestTracedFig11Exactness:
    def test_every_scheme_traced(self, traced_run):
        points, tracer, path = traced_run
        schemes = {t.scheme for t in tracer.traces}
        assert schemes == {p.scheme for p in points}
        # 4 schemes × 20 steps each.
        assert len(tracer) == len(points) * SMALL.num_steps

    def test_mean_step_times_match_live_exactly(self, traced_run):
        points, tracer, path = traced_run
        aggs = aggregate_traces(read_traces(path))
        for p in points:
            assert aggs[p.scheme].mean_step_time == p.avg_step_time

    def test_recovery_recorded_for_decoding_scheme(self, traced_run):
        points, tracer, path = traced_run
        aggs = aggregate_traces(read_traces(path))
        isgc = aggs["is-gc(w=4)"]
        assert isgc.decoded_rounds == SMALL.num_steps
        assert 0.0 < isgc.mean_recovery_fraction <= 1.0
        assert isgc.mean_num_searches >= 1.0
        # Non-decoding schemes stay decode-free.
        assert aggs["sync-sgd"].mean_recovery_fraction is None

    def test_loaded_aggregates_match_live_aggregates(self, traced_run):
        points, tracer, path = traced_run
        live = aggregate_traces(tracer.traces)
        loaded = aggregate_traces(read_traces(path))
        assert live == loaded

    def test_each_scheme_keeps_the_time_origin_contract(self, traced_run):
        # Fig. 11 replays one fresh simulator per scheme, so each
        # scheme's rounds chain from 0.
        points, tracer, path = traced_run
        loaded = read_traces(path)
        for p in points:
            traces = [t for t in loaded if t.scheme == p.scheme]
            assert time_origin_problems(traces) == []


class TestCliTrace:
    def test_record_then_summarize(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli.jsonl"
        assert main([
            "trace", "record", "--out", str(out),
            "-n", "6", "-w", "3", "--steps", "10",
        ]) == 0
        recorded = capsys.readouterr().out
        assert "recorded 40 rounds" in recorded

        assert main(["trace", "summarize", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "Round-trace summary" in summary
        assert "is-gc(w=3)" in summary
        assert "40 rounds, 4 schemes" in summary

    def test_summarize_missing_file_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", str(tmp_path / "no.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSimulatorTracing:
    def _sim(self, tracer=None):
        return ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            environment=Environment(
                delay=ExponentialDelay(0.5),
                compute=ComputeModel(base=0.1, per_partition=0.1),
                network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            ),
            rng=np.random.default_rng(7),
            tracer=tracer,
        )

    def test_traced_rounds_mirror_round_results(self):
        tracer = RoundTracer(scheme="unit")
        sim = self._sim(tracer=tracer)
        results = [sim.run_round(step, WaitForK(3)) for step in range(5)]
        assert len(tracer) == 5
        for res, tr in zip(results, tracer.traces):
            assert tr.step_start == res.step_start
            assert tr.step_end == res.step_end
            assert tr.arrivals == res.arrivals
            assert tr.proceed_time == res.outcome.proceed_time
            assert set(tr.accepted_workers) == set(res.outcome.accepted_workers)
            assert tr.wasted_compute == res.wasted_compute
            assert tr.policy == "wait-for-k(k=3)"

    def test_tracing_does_not_perturb_simulation(self):
        plain = self._sim()
        traced = self._sim(tracer=RoundTracer())
        for step in range(5):
            a = plain.run_round(step, WaitForK(3))
            b = traced.run_round(step, WaitForK(3))
            assert a == b

    def test_tracer_attachable_after_construction(self):
        sim = self._sim()
        assert sim.tracer is None
        sim.run_round(0, WaitForK(3))
        tracer = RoundTracer(scheme="late")
        sim.tracer = tracer
        sim.run_round(1, WaitForK(3))
        assert len(tracer) == 1
        assert tracer.traces[0].step == 1

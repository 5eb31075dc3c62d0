"""Tests for the experiment harnesses (small, fast configurations)."""

import json

import pytest

from repro.cli import main
from repro.engine import RunReport
from repro.exceptions import ConfigurationError
from repro.experiments import (
    Fig11Config,
    Fig12Config,
    Fig13Config,
    fig11_tables,
    fig13_tables,
    recovery_table,
    run,
    run_condition,
    run_fig12,
    run_fig13,
)
from repro.experiments.fig12 import fig12_specs
from repro.experiments.fig13 import fig13_spec

SMALL11 = Fig11Config(num_steps=40, wait_values=(6, 12), expected_delays=(1.5,),
                      num_delayed_options=(12,))
SMALL12 = Fig12Config(num_trials=1, max_steps=40, loss_threshold=0.0,
                      recovery_trials=400, dataset_samples=512)
SMALL13 = Fig13Config(num_steps=30, recovery_trials=400, dataset_samples=512)


class TestConfigValidation:
    def test_fig11_bad_wait(self):
        with pytest.raises(ConfigurationError):
            Fig11Config(wait_values=(0,))

    def test_fig11_bad_delayed(self):
        with pytest.raises(ConfigurationError):
            Fig11Config(num_delayed_options=(99,))

    def test_fig12_bad_wait(self):
        with pytest.raises(ConfigurationError):
            Fig12Config(wait_values=(9,))

    def test_fig12_needs_a_trial(self):
        with pytest.raises(ConfigurationError, match="num_trials"):
            Fig12Config(num_trials=0)

    @pytest.mark.parametrize("straggling", [-1, 9])
    def test_fig12_bad_straggling(self, straggling):
        with pytest.raises(ConfigurationError, match="num_straggling"):
            Fig12Config(num_straggling=straggling)

    def test_fig13_bad_c1(self):
        with pytest.raises(ConfigurationError):
            Fig13Config(c1_values=(7,))

    def test_fig13_bad_wait(self):
        with pytest.raises(ConfigurationError):
            Fig13Config(wait_for=0)


class TestFig11:
    def test_schemes_present(self):
        points = run_condition(SMALL11, 1.5, 12)
        names = {p.scheme for p in points}
        assert "sync-sgd" in names and "gc" in names
        assert any(n.startswith("is-gc") for n in names)

    def test_isgc_faster_than_sync_under_stragglers(self):
        points = run_condition(SMALL11, 1.5, 12)
        sync = next(p for p in points if p.scheme == "sync-sgd")
        isgc = next(p for p in points if p.scheme == "is-gc(w=6)")
        assert isgc.avg_step_time < sync.avg_step_time

    def test_isgc_overhead_over_issgd_is_constant_compute(self):
        points = run_condition(SMALL11, 1.5, 12)
        issgd = next(p for p in points if p.scheme == "is-sgd(w=6)")
        isgc = next(p for p in points if p.scheme == "is-gc(w=6)")
        expected_gap = SMALL11.per_partition_compute
        assert isgc.avg_step_time - issgd.avg_step_time == pytest.approx(
            expected_gap, rel=0.01
        )

    def test_gc_slower_than_sync_with_heavy_compute(self):
        """The Fig. 11(a) observation the paper highlights."""
        points = run_condition(SMALL11, 1.5, 12)
        sync = next(p for p in points if p.scheme == "sync-sgd")
        gc = next(p for p in points if p.scheme == "gc")
        assert gc.avg_step_time > sync.avg_step_time

    def test_relative_overhead_over_issgd_shrinks_with_delay(self):
        """Sec. VIII-B's "difference reduced" claim: the constant
        compute gap weighs less as E[delay] grows from 1.5 s to 3.0 s."""
        cfg = Fig11Config(num_steps=60)

        def relative_gap(expected_delay):
            points = run_condition(cfg, expected_delay, 24)
            isgc = next(p for p in points if p.scheme == "is-gc(w=18)")
            issgd = next(p for p in points if p.scheme == "is-sgd(w=18)")
            return (
                isgc.avg_step_time - issgd.avg_step_time
            ) / issgd.avg_step_time

        assert relative_gap(3.0) < relative_gap(1.5)

    def test_tables_render(self):
        tables = fig11_tables(SMALL11)
        assert len(tables) == 1
        assert "Fig 11" in tables[0].render()


class TestFig12:
    def test_recovery_table_shape(self):
        table = recovery_table(SMALL12)
        assert len(table.rows) == 4

    def test_training_cells_cover_schemes(self):
        results = run_fig12(SMALL12)
        assert set(results) == {1, 2, 3, 4}
        names_w2 = {p.scheme for p in results[2]}
        assert {"is-sgd", "is-gc-fr", "is-gc-cr"} <= names_w2
        names_w3 = {p.scheme for p in results[3]}
        assert "gc" in names_w3  # w = n - c + 1
        names_w4 = {p.scheme for p in results[4]}
        assert "sync-sgd" in names_w4

    def test_isgc_recovers_more_than_issgd(self):
        results = run_fig12(SMALL12)
        for w in (1, 2, 3):
            issgd = next(p for p in results[w] if p.scheme == "is-sgd")
            isgc = next(p for p in results[w] if p.scheme == "is-gc-fr")
            assert isgc.recovery_pct > issgd.recovery_pct

    def test_fr_recovers_at_least_cr(self):
        results = run_fig12(SMALL12)
        for w in (1, 2, 3, 4):
            fr = next(p for p in results[w] if p.scheme == "is-gc-fr")
            cr = next(p for p in results[w] if p.scheme == "is-gc-cr")
            assert fr.recovery_pct >= cr.recovery_pct - 1e-9


class TestFig13:
    def test_recovery_monotone_in_c1(self):
        points = run_fig13(SMALL13)
        recoveries = [p.mean_recovered for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(recoveries, recoveries[1:]))

    def test_endpoints(self):
        points = run_fig13(SMALL13)
        assert points[0].c1 == 0 and points[0].c2 == 4  # CR end
        assert points[-1].c1 == 3  # FR-equivalent end

    def test_loss_curves_recorded(self):
        points = run_fig13(SMALL13)
        for p in points:
            assert len(p.loss_curve) == SMALL13.num_steps

    def test_tables_render(self):
        tables = fig13_tables(SMALL13)
        assert len(tables) == 2
        assert "Fig 13(a)" in tables[0].render()


class TestRunner:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run("fig99")

    def test_cli_choices_are_the_runner_registry(self):
        from repro.cli import build_parser
        from repro.experiments.runner import EXPERIMENTS

        parser = build_parser()
        for name in (*EXPERIMENTS, "all"):
            assert parser.parse_args(["experiment", name]).figure == name
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])


def _run_spec_file(spec, tmp_path) -> RunReport:
    """``repro run`` on ``spec`` written out with ``to_dict``."""
    spec_path, report_path = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    assert main(["run", str(spec_path), "--report", str(report_path)]) == 0
    report = RunReport.from_json(report_path.read_text())
    assert report.spec_fingerprint == spec.fingerprint()
    return report


class TestFigureCellsAreSpecs:
    """A figure cell's run, written as a spec file, is a ``repro run``."""

    def test_fig12_cell_reproduces_under_repro_run(self, tmp_path):
        cfg = Fig12Config(
            num_trials=1, max_steps=40, loss_threshold=1.5,
            recovery_trials=50, dataset_samples=512, wait_values=(3,),
        )
        points = run_fig12(cfg)[3]
        specs = fig12_specs(cfg, 3)
        assert [s.scheme for s in specs] == [p.scheme for p in points]
        gc, point = specs[-1], points[-1]
        assert gc.scheme == "gc"
        report = _run_spec_file(gc, tmp_path)
        assert report.reached_threshold and report.num_steps < 40
        assert (
            report.num_steps, report.total_sim_time,
            report.metrics["avg_step_time"],
            100 * report.metrics["avg_recovery_fraction"],
        ) == (
            point.num_steps, point.total_time, point.avg_step_time,
            point.recovery_pct,
        )

    def test_fig13_cell_reproduces_under_repro_run(self, tmp_path):
        cfg = Fig13Config(
            num_steps=20, recovery_trials=50, dataset_samples=512,
            c1_values=(1,),
        )
        (point,) = run_fig13(cfg)
        report = _run_spec_file(fig13_spec(cfg, 1), tmp_path)
        assert report.loss_curve == point.loss_curve

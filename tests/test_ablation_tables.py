"""Shape assertions for the ablation / theory / extension tables.

``repro experiment ablations|theory|extensions`` regenerates these
tables for EXPERIMENTS.md; each claim that file makes about one is
asserted here on the table's own rows, at full size.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.engine import ExperimentSpec, run_spec
from repro.experiments import run, tables
from repro.experiments.runner import EXPERIMENTS


def column(table, name):
    index = list(table.columns).index(name)
    return [row[index] for row in table.rows]


def decreasing(values):
    values = list(values)
    return values == sorted(values, reverse=True)


class TestAblations:
    def test_conflict_graph_decoder_beats_arrival_order_greedy(self):
        table = tables.decoder_quality_table()
        assert len(table.rows) == 4
        for naive, coded in zip(
            column(table, "naive mean"), column(table, "is-gc mean")
        ):
            assert coded >= naive

    def test_waiting_for_fewer_is_faster(self):
        table = tables.wait_policy_table()
        by_name = dict(table.rows)
        assert (
            by_name["wait-k (k=12)"]
            < by_name["wait-k (k=18)"]
            < by_name["wait-all"]
        )

    @pytest.mark.parametrize(
        "builder", [tables.delay_model_table, tables.time_varying_table]
    )
    def test_isgc_saves_time_under_every_delay_model(self, builder):
        for name, fast, slow, _ in builder().rows:
            assert fast < slow, f"no saving under {name}"

    def test_least_squares_never_worse_and_both_shrink_with_w(self):
        table = tables.approx_vs_isgc_table()
        ls = column(table, "LS deviation ‖v-1‖")
        stochastic = column(table, "stoch-sum deviation")
        assert all(a <= b + 1e-9 for a, b in zip(ls, stochastic))
        assert decreasing(ls) and decreasing(stochastic)


class TestTheory:
    def test_bounds_bracket_exact_and_monte_carlo_agrees(self):
        table = tables.bounds_table()
        assert len(table.rows) == 12
        for _, _, lower, upper, exact, mc in table.rows:
            assert lower - 1e-9 <= exact <= upper + 1e-9
            assert abs(exact - mc) < 0.15

    def test_variance_ordering(self):
        """Var(IS-GC) ≤ Var(IS-SGD) at every w, and FR ≤ CR once w ≥ 2
        (at w = 1 both recover exactly c partitions, so only which
        sums are drawn differs and no ordering is guaranteed)."""
        for w, v_sgd, v_cr, v_fr, _ in tables.estimator_variance_table().rows:
            assert v_cr <= v_sgd + 1e-9
            assert v_fr <= v_sgd + 1e-9
            if w >= 2:
                assert v_fr <= v_cr + 1e-9

    def test_full_recovery_row_reads_exact(self):
        """At w = n both variances are float noise (~1e-30), which used
        to print as a "0.00x" reduction."""
        reductions = column(
            tables.estimator_variance_table(), "fr reduction vs is-sgd"
        )
        assert reductions[-1] == "exact (0/0)"
        assert all(r.endswith("x") and float(r[:-1]) > 1 for r in reductions[:-1])

    def test_fr_never_behind_cr_on_the_grid(self):
        recovery = tables.recovery_grid_table()
        gap = tables.fr_advantage_table()
        for table in (recovery, gap):
            assert len(table.rows) == 4
            cells = [cell for row in table.rows for cell in row[1:]]
            assert len(cells) == 24 and "err" not in cells
        assert all(float(cell) >= 0 for row in gap.rows for cell in row[1:])


class TestExtensions:
    def test_adaptive_lands_between_cr_and_fr(self):
        table = tables.adaptive_placement_table()
        fixed_cr, fixed_fr, adaptive = map(
            float, column(table, "avg recovery %")
        )
        assert fixed_cr < adaptive <= fixed_fr
        assert column(table, "migrations") == [0, 0, 1]

    def test_wall_clock_shrinks_with_tau(self):
        table = tables.local_sgd_table()
        times = column(table, "total time (s)")
        assert decreasing(times)
        # Near-τ-fold: τ=8 is at least 4× cheaper than τ=1.
        assert times[-1] < times[0] / 4
        assert all(loss < 0.4 for loss in column(table, "final loss"))

    @pytest.mark.parametrize(
        "table", tables.GROUPS["extensions"],
        ids=lambda table: table.__name__[:-len("_table")].replace("_", "-"),
    )
    def test_every_training_row_is_a_spec_repro_run_reruns(self, table):
        """Each extension table's rows are what ``repro run`` prints for
        the specs of its ``*_specs`` twin written to a file: the spec
        survives JSON and ``run_spec`` reproduces it.  An extension with
        no specs fails here."""
        specs_name = table.__name__[:-len("_table")] + "_specs"
        assert hasattr(tables, specs_name), f"{table.__name__} has no specs"
        rows = table().rows
        specs = getattr(tables, specs_name)()
        assert len(rows) == len(specs)
        for spec, row in zip(specs, rows):
            text = json.dumps(spec.to_dict())
            reread = ExperimentSpec.from_dict(json.loads(text))
            assert reread == spec
            summary = run_spec(reread)
            if spec.rule == "local-update":
                assert list(row) == [
                    spec.rule_params["local_steps"], summary.num_steps,
                    round(summary.total_sim_time, 1),
                    round(summary.final_loss, 4),
                ]
                continue
            migrations = row[3]
            assert list(row[1:3]) == [
                f"{100 * summary.avg_recovery_fraction:.1f}",
                round(summary.final_loss, 4),
            ]
            assert (spec.rule == "adaptive") == (migrations > 0)
            if spec.rule == "adaptive":
                assert summary.scheme == (
                    f"adaptive-is-gc ({migrations} migrations)"
                )


class TestRegistration:
    def test_every_group_is_a_runner_experiment(self):
        assert set(tables.GROUPS) <= set(EXPERIMENTS)

    def test_run_builds_the_group_in_order(self, monkeypatch):
        monkeypatch.setitem(
            tables.GROUPS, "theory", (lambda: "first", lambda: "second")
        )
        assert run("theory") == ["first", "second"]

    def test_import_experiments_does_not_import_the_tables(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys, repro.experiments, repro.experiments.runner; "
            "print('repro.experiments.tables' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestPlacementCommand:
    def test_cr_placement_described(self, capsys):
        assert main(["placement", "--scheme", "cr", "-n", "4", "-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "CyclicRepetition" in out
        assert "W0" in out
        assert "conflict graph" in out

    def test_fr_placement(self, capsys):
        assert main(["placement", "--scheme", "fr", "-n", "4", "-c", "2"]) == 0
        assert "FractionalRepetition" in capsys.readouterr().out

    def test_hr_placement(self, capsys):
        assert main([
            "placement", "--scheme", "hr", "-n", "8", "-c", "4",
            "--g", "2", "--c1", "2",
        ]) == 0
        assert "HybridRepetition" in capsys.readouterr().out

    def test_hr_without_group_args_errors(self, capsys):
        assert main(["placement", "--scheme", "hr", "-n", "8", "-c", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_params_exit_code(self, capsys):
        # FR needs c | n.
        assert main(["placement", "--scheme", "fr", "-n", "5", "-c", "2"]) == 2

    def test_rows_and_edges_in_ascending_worker_order(self, capsys):
        assert main(["placement", "--scheme", "cr", "-n", "12", "-c", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        top = next(
            i for i, line in enumerate(out) if line.startswith("conflict graph")
        )
        header, *matrix = out[top + 1:top + 14]
        edge_rows = out[top + 15:]
        workers = [str(w) for w in range(12)]
        assert header.split() == workers
        assert [row.split()[0] for row in matrix] == workers
        assert [row.split()[0] for row in edge_rows] == [
            f"W{w}" for w in workers
        ]
        assert edge_rows[0] == "W0 -- W1 W2 W10 W11"


class TestDecodeCommand:
    def test_decode_paper_example(self, capsys):
        assert main([
            "decode", "--scheme", "cr", "-n", "4", "-c", "2",
            "--available", "0,2",
        ]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "100.0%" in out

    def test_decode_partial(self, capsys):
        assert main([
            "decode", "--scheme", "cr", "-n", "4", "-c", "2",
            "--available", "0,1",
        ]) == 0
        assert "50.0%" in capsys.readouterr().out


class TestRecoveryCommand:
    def test_recovery_curve(self, capsys):
        assert main([
            "recovery", "--scheme", "fr", "-n", "4", "-c", "2",
            "--trials", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "Recovery curve" in out
        assert "100.0%" in out  # w = n row


class TestBoundsCommand:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "-n", "8", "-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 10/11" in out
        # w = 8 row: lower = upper = 4.
        assert "8 | 4" in out

    def test_bounds_invalid(self, capsys):
        assert main(["bounds", "-n", "4", "-c", "9"]) == 2


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestAdviseCommand:
    def test_advise_ranks_placements(self, capsys):
        assert main([
            "advise", "-n", "8", "-c", "4", "-w", "2", "--trials", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "Placement ranking" in out
        assert "recommended: FractionalRepetition(n=8, c=4)" in out

    def test_advise_invalid_params(self, capsys):
        assert main(["advise", "-n", "4", "-c", "9", "-w", "2"]) == 2


class TestSimulateCommand:
    def test_simulate_isgc(self, capsys):
        assert main([
            "simulate", "--scheme", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "is-gc-cr" in out
        assert "loss:" in out

    def test_simulate_issgd_when_c_is_one(self, capsys):
        assert main([
            "simulate", "--scheme", "cr", "-n", "4", "-c", "1",
            "-w", "2", "--steps", "5",
        ]) == 0
        assert "is-sgd" in capsys.readouterr().out

    def test_simulate_delay_kind(self, capsys):
        assert main([
            "simulate", "--scheme", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5",
            "--delay-kind", "pareto",
            "--delay-param", "alpha=2.5", "--delay-param", "scale=0.3",
        ]) == 0
        assert "loss:" in capsys.readouterr().out

    def test_simulate_unknown_delay_kind_did_you_mean(self, capsys):
        assert main([
            "simulate", "--scheme", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5", "--delay-kind", "exponentail",
        ]) == 2
        assert "exponential" in capsys.readouterr().err

    def test_simulate_bad_delay_param(self, capsys):
        assert main([
            "simulate", "--scheme", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5", "--delay-param", "alpha",
        ]) == 2
        assert "--delay-param" in capsys.readouterr().err

    def test_simulate_seed_goes_through_spec_admission(self, capsys):
        assert main([
            "simulate", "--scheme", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5", "--seed", "-1",
        ]) == 2
        assert "seed must be an integer >= 0, got -1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flags, scheme", [
        (["--scheme", "cr", "-n", "4", "-c", "2"],
         {"scheme": "is-gc-cr", "num_workers": 4,
          "partitions_per_worker": 2}),
        (["--scheme", "hr", "-n", "8", "-c", "4", "--g", "2", "--c1", "1"],
         {"scheme": "is-gc-hr", "num_workers": 8,
          "partitions_per_worker": 4,
          "scheme_params": {"c1": 1, "c2": 3, "num_groups": 2}}),
    ], ids=["cr", "hr"])
    def test_simulate_reports_like_run_of_its_spec(
        self, flags, scheme, tmp_path
    ):
        spec = {
            "name": scheme["scheme"], **scheme, "wait_for": 2,
            "max_steps": 12, "learning_rate": 0.2, "seed": 5,
            "dataset": {
                "kind": "classification", "samples": 1024, "features": 12,
                "num_classes": 3, "separation": 2.0, "batch_size": 32,
            },
            "model": {"kind": "softmax"},
            "delay": {"kind": "exponential", "mean": 0.5},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        simulated, ran = tmp_path / "a.json", tmp_path / "b.json"
        assert main([
            "simulate", *flags, "-w", "2", "--steps", "12", "--lr", "0.2",
            "--delay", "0.5", "--seed", "5", "--report", str(simulated),
        ]) == 0
        assert main([
            "run", str(spec_path), "--report", str(ran),
        ]) == 0
        assert simulated.read_text() == ran.read_text()


class TestEnvironmentsCommand:
    def test_catalogue_lists_every_layer(self, capsys):
        assert main(["environments"]) == 0
        out = capsys.readouterr().out
        for token in ("delay", "failure", "compute", "network",
                      "contention", "exponential", "transient-dropouts",
                      "fair-share"):
            assert token in out

    def test_single_model_described_with_params(self, capsys):
        assert main([
            "environments", "pareto",
            "--param", "alpha=2.5", "--param", "scale=0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "pareto" in out
        assert "2.5" in out

    def test_unknown_kind_did_you_mean(self, capsys):
        assert main(["environments", "exponentail"]) == 2
        assert "exponential" in capsys.readouterr().err


class TestServeCommands:
    @pytest.mark.parametrize("marker", [
        pytest.param({"max_running": 4, "queue_limit": 64}, id="current"),
        # Older coordinators also wrote the execution mode they ran in.
        pytest.param(
            {"mode": "live", "max_running": 4, "queue_limit": 64},
            id="with-mode-field",
        ),
    ])
    def test_jobs_status_line_names_the_pid(self, tmp_path, capsys, marker):
        mb = tmp_path / "mb"
        mb.mkdir()
        (mb / "coordinator.json").write_text(
            json.dumps({**marker, "pid": 4242})
        )
        assert main(["jobs", str(mb)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "coordinator: pid 4242"
        )

    def test_serve_has_one_execution_path(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "mb", "--help"])
        assert "--mode" not in capsys.readouterr().out

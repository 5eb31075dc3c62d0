"""Tests for the command-line interface."""

import importlib.util
import json
import pathlib
import re
import shlex

import numpy as np
import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.core.decoders import decoder_for
from repro.core.scheme import make_placement, registered_placements

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestPlacementCommand:
    """``placements FAMILY`` describes one family's placement and
    renders its conflict graph."""

    def test_cr_placement_described(self, capsys):
        assert main(["placements", "cr", "-n", "4", "-c", "2"]) == 0
        out = capsys.readouterr().out
        assert "CyclicRepetition" in out
        assert "W0" in out
        assert "conflict graph" in out

    def test_fr_placement(self, capsys):
        assert main(["placements", "fr", "-n", "4", "-c", "2"]) == 0
        assert "FractionalRepetition" in capsys.readouterr().out

    def test_hr_placement(self, capsys):
        assert main([
            "placements", "hr", "-n", "8", "-c", "4",
            "--param", "c1=2", "--param", "c2=2", "--param", "num_groups=2",
        ]) == 0
        assert "HybridRepetition" in capsys.readouterr().out

    def test_hr_without_group_args_errors(self, capsys):
        assert main(["placements", "hr", "-n", "8", "-c", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_params_exit_code(self, capsys):
        # FR needs c | n.
        assert main(["placements", "fr", "-n", "5", "-c", "2"]) == 2

    def test_rows_and_edges_in_ascending_worker_order(self, capsys):
        assert main(["placements", "cr", "-n", "12", "-c", "3"]) == 0
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

    def test_param_values_are_json(self, capsys):
        assert main([
            "placements", "explicit", "-n", "4", "-c", "2",
            "--param", "rows=[[0,1],[1,2],[2,3],[3,0]]",
        ]) == 0
        assert "ExplicitPlacement(n=4, c=2)" in capsys.readouterr().out

    def test_c_must_agree_with_a_derived_c(self, capsys):
        # HR derives c = c1 + c2; a -c that disagrees is refused, not
        # ignored.
        assert main([
            "placements", "hr", "-n", "8", "-c", "3",
            "--param", "c1=2", "--param", "c2=2", "--param", "num_groups=2",
        ]) == 2
        assert "-c 3 disagrees with the 'hr' placement" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("param", ["c1=2.5", 'c1="2"', "c1=true"])
    def test_family_params_must_be_integers(self, param, capsys):
        # 2.5 used to build c1 = 2, and "2" c1 = 2: refused, not cast.
        assert main([
            "placements", "hr", "-n", "12",
            "--param", param, "--param", "c2=1", "--param", "num_groups=3",
        ]) == 2
        assert "needs integer" in capsys.readouterr().err


class TestPlacementFlagsAreNotParams:
    """``--param`` may not name what ``-n``/``-c`` give: each command
    refuses it (exit 2) instead of crashing on a duplicate keyword."""

    @pytest.mark.parametrize("command,argv", [
        ("placements", ["--param", "num_workers=8"]),
        ("decode", ["--param", "num_workers=8", "--available", "0,2"]),
        ("recovery", ["--param", "partitions_per_worker=3",
                      "--trials", "5"]),
    ])
    def test_duplicate_of_a_flag_refused(self, command, argv, capsys):
        assert main([command, "cr", "-n", "6", "-c", "2", *argv]) == 2
        err = capsys.readouterr().err
        flag = "-n" if "num_workers" in argv[1] else "-c"
        assert f"duplicates {flag}" in err
        assert "Traceback" not in err


def _golden_case(family):
    """``(argv, params)`` for the first golden case of ``family``: the
    placement grammar's flags, and the registry parameters they name."""
    path = REPO / "tests" / "golden" / "record_placement_goldens.py"
    loader = importlib.util.spec_from_file_location("record_goldens", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    cases = [case for case in module.CASES if case[0] == family]
    assert cases, f"no golden placement case for family {family!r}"
    _, params, build = cases[0]
    params = dict(params)
    argv = [
        family, "-n", str(params.pop("num_workers", build().num_workers)),
    ]
    if "partitions_per_worker" in params:
        argv += ["-c", str(params.pop("partitions_per_worker"))]
    for key, value in params.items():
        argv += ["--param", f"{key}={json.dumps(value)}"]
    return argv, cases[0][1]


class TestEveryFamilyFromTheCommandLine:
    """Every registered family is decoded, swept and simulated through
    the one placement grammar."""

    @pytest.mark.parametrize("family", registered_placements())
    def test_decode(self, family, capsys):
        argv, params = _golden_case(family)
        assert main(["decode", *argv, "--available", "0,2,3"]) == 0
        placement = make_placement(family, **params)
        result = decoder_for(
            placement, rng=np.random.default_rng(0)
        ).decode([0, 2, 3])
        out = capsys.readouterr().out
        assert f"recovered         : {sorted(result.recovered_partitions)}" in out

    @pytest.mark.parametrize("family", registered_placements())
    def test_recovery(self, family, capsys):
        argv, params = _golden_case(family)
        assert main(["recovery", *argv, "--trials", "20"]) == 0
        placement = make_placement(family, **params)
        out = capsys.readouterr().out
        assert (
            f"{placement.kind}(n={placement.num_workers}, "
            f"c={placement.partitions_per_worker}), 20 trials per w"
        ) in out
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert len(rows) == placement.num_workers

    @pytest.mark.parametrize("family", registered_placements())
    def test_simulate(self, family, capsys):
        argv, _ = _golden_case(family)
        assert main(["simulate", *argv, "-w", "2", "--steps", "2"]) == 0
        assert ": 2 steps," in capsys.readouterr().out


class TestDecodeCommand:
    def test_decode_paper_example(self, capsys):
        assert main([
            "decode", "cr", "-n", "4", "-c", "2",
            "--available", "0,2",
        ]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "100.0%" in out

    def test_decode_partial(self, capsys):
        assert main([
            "decode", "cr", "-n", "4", "-c", "2",
            "--available", "0,1",
        ]) == 0
        assert "50.0%" in capsys.readouterr().out


class TestRecoveryCommand:
    def test_recovery_curve(self, capsys):
        assert main([
            "recovery", "fr", "-n", "4", "-c", "2",
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

    def test_bounds_refuses_no_workers(self, capsys):
        # Used to print an empty table and exit 0.
        assert main(["bounds", "-n", "0", "-c", "1"]) == 2
        assert capsys.readouterr().err == "error: need n >= 1, got n=0\n"


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
            "simulate", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "is-gc-cr" in out
        assert "loss:" in out

    def test_simulate_issgd_when_c_is_one(self, capsys):
        assert main([
            "simulate", "cr", "-n", "4", "-c", "1",
            "-w", "2", "--steps", "5",
        ]) == 0
        assert "is-sgd" in capsys.readouterr().out

    def test_simulate_delay_kind(self, capsys):
        assert main([
            "simulate", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5",
            "--delay-kind", "pareto",
            "--delay-param", "alpha=2.5", "--delay-param", "scale=0.3",
        ]) == 0
        assert "loss:" in capsys.readouterr().out

    def test_simulate_unknown_delay_kind_did_you_mean(self, capsys):
        assert main([
            "simulate", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5", "--delay-kind", "exponentail",
        ]) == 2
        assert "exponential" in capsys.readouterr().err

    def test_simulate_bad_delay_param(self, capsys):
        assert main([
            "simulate", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5", "--delay-param", "alpha",
        ]) == 2
        assert "--delay-param" in capsys.readouterr().err

    def test_simulate_seed_goes_through_spec_admission(self, capsys):
        assert main([
            "simulate", "cr", "-n", "4", "-c", "2",
            "-w", "2", "--steps", "5", "--seed", "-1",
        ]) == 2
        assert "seed must be an integer >= 0, got -1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flags, scheme", [
        (["cr", "-n", "4", "-c", "2"],
         {"scheme": "is-gc", "num_workers": 4,
          "partitions_per_worker": 2,
          "scheme_params": {"placement": "cr"}}),
        (["hr", "-n", "8", "-c", "4", "--param", "c1=1",
          "--param", "c2=3", "--param", "num_groups=2"],
         {"scheme": "is-gc", "num_workers": 8,
          "partitions_per_worker": 4,
          "scheme_params": {
              "placement": "hr", "c1": 1, "c2": 3, "num_groups": 2,
          }}),
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

    def test_nested_alias_spelled_section_pinned(self, capsys):
        """The spec and fingerprint are the section data's: the family's
        canonical kind, the nested sub-spec as it was spelled."""
        assert main([
            "environments", "persistent", "--layer", "delay",
            "--param", "stragglers=[0]",
            "--param", 'delay={"kind": "exp", "mean": 2.0}',
        ]) == 0
        out = capsys.readouterr().out
        assert (
            "  spec        : {'kind': 'persistent', 'delay': {'kind': 'exp', "
            "'mean': 2.0}, 'stragglers': [0]}\n"
        ) in out
        assert (
            "  fingerprint : 65f4cc75f467dc108425da97b6964f74a77490ab888947dd"
            "3ce0970ba85090dd\n"
        ) in out

    @pytest.mark.parametrize("name", ["kind", "layer"])
    def test_param_named_like_make_models_arguments(self, name, capsys):
        # `make_model(layer, kind, /, **params)`: a param called `kind`
        # or `layer` is the family's invalid parameter, not a
        # TypeError for a doubly given argument.
        assert main([
            "environments", "pareto", "--layer", "delay",
            "--param", f"{name}=1",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid parameters for delay model "
                              "'pareto'"), err
        assert f"argument {name!r}" in err

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


def _repro_command_lines():
    """``(source, argv)`` for every ``repro ...`` / ``python -m repro
    ...`` line of the README's and ``docs/``'s shell blocks, the verify
    recipe's and the ``repro.cli`` docstring; ``argv`` is what follows
    ``repro``, up to a ``&``, ``;`` or ``|``."""
    texts = [
        (path.relative_to(REPO).as_posix(), block)
        for path in [
            REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
            REPO / ".claude" / "skills" / "verify" / "SKILL.md",
        ]
        if path.exists()
        for block in re.findall(
            r"^```(?:bash|console)\n(.*?)^```", path.read_text(),
            re.MULTILINE | re.DOTALL,
        )
    ]
    texts.append(("repro.cli", "\n".join(
        line for line in repro.cli.__doc__.splitlines()
        if line.strip().startswith("python -m repro ")
    )))
    for source, text in texts:
        for line in text.replace("\\\n", " ").splitlines():
            words = shlex.split(line.strip().removeprefix("$ "), comments=True)
            for i, word in enumerate(words):
                if word == "repro" and (
                    i == 0 or words[i - 1] == "-m" or "=" in words[i - 1]
                ):
                    argv = []
                    for arg in words[i + 1:]:
                        if arg in ("&", "&&", ";", "|"):
                            break
                        argv.append(arg)
                    yield source, argv
                    break


def test_documented_command_lines_parse(capsys):
    """A documented command line the parser refuses is stale.  Parsing
    runs nothing."""
    documented = list(_repro_command_lines())
    assert {"README.md", "docs/placements.md", "repro.cli"} <= {
        source for source, _ in documented
    }
    stale = []
    for source, argv in documented:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            error = capsys.readouterr().err.strip().splitlines()[-1]
            stale.append(f"{source}: repro {shlex.join(argv)} ({error})")
    assert stale == []

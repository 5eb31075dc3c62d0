"""Tests for the ``repro check`` CLI subcommand.

Covers the exit-code contract (0 clean / 1 findings / 2 usage error),
the JSON report schema, ``--list-rules``, ``--select``, and
``# repro: noqa[RULE]`` suppressions end-to-end through ``main``.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.cli import main
from repro.staticcheck import JSON_SCHEMA_VERSION, RULE_REGISTRY

REPO = pathlib.Path(__file__).resolve().parent.parent

DIRTY = (
    "import numpy as np\n"
    "x = np.random.randn(3)\n"
)

CLEAN = (
    "import numpy as np\n"
    "rng = np.random.default_rng(0)\n"
    "x = rng.standard_normal(3)\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main(["check", path]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "dirty.py:2:" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main(["check", path, "--select", "NOPE999"]) == 2
        assert "NOPE999" in capsys.readouterr().err


class TestJsonOutput:
    def test_schema(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main(["check", path, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == JSON_SCHEMA_VERSION
        assert report["checked_files"] == 1
        (finding,) = report["findings"]
        assert finding["rule"] == "DET001"
        assert finding["path"].endswith("dirty.py")
        assert finding["line"] == 2
        assert isinstance(finding["col"], int)
        assert finding["severity"] in {"error", "warning"}
        assert finding["message"]
        assert report["summary"]["total"] == 1
        assert report["summary"]["by_rule"] == {"DET001": 1}
        assert report["summary"]["by_severity"]["error"] == 1
        assert "files" in report["timing"]
        assert report["timing"]["total_seconds"] >= 0

    def test_clean_json(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN)
        assert main(["check", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["findings"] == []
        assert report["summary"]["total"] == 0


class TestSelectAndCatalogue:
    def test_select_filters_rules(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main(["check", path, "--select", "TIME001"]) == 0
        assert main(["check", path, "--select", "DET001,TIME001"]) == 1

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_REGISTRY:
            assert rule_id in out


class TestNoqa:
    def test_noqa_rule_suppresses(self, tmp_path, capsys):
        path = write(
            tmp_path, "dirty.py",
            "import numpy as np\n"
            "x = np.random.randn(3)  # repro: noqa[DET001]\n",
        )
        assert main(["check", path]) == 0

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        path = write(
            tmp_path, "dirty.py",
            "import numpy as np\n"
            "x = np.random.randn(3)  # repro: noqa\n",
        )
        assert main(["check", path]) == 0

    def test_wrong_rule_noqa_does_not_suppress(self, tmp_path):
        path = write(
            tmp_path, "dirty.py",
            "import numpy as np\n"
            "x = np.random.randn(3)  # repro: noqa[TIME001]\n",
        )
        assert main(["check", path]) == 1


class TestSpecFiles:
    def test_infeasible_spec_file_rejected(self, tmp_path, capsys):
        # CR with c = n: decode-anything needs c < n (Theorem 1).
        path = write(tmp_path, "bad.json", json.dumps({
            "name": "bad", "scheme": "is-gc-cr", "num_workers": 4,
            "partitions_per_worker": 4, "wait_for": 2,
        }))
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "SPEC001" in out
        assert "1 <= c < n" in out

    def test_shipped_specs_pass(self, capsys):
        specs = str(REPO / "examples" / "specs")
        assert main(["check", specs]) == 0

    def test_markdown_python_blocks_checked(self, tmp_path):
        path = write(
            tmp_path, "doc.md",
            "# Title\n\n```python\nimport numpy as np\n"
            "x = np.random.randn(2)\n```\n",
        )
        assert main(["check", path]) == 1


class TestLazyImport:
    def test_import_repro_does_not_load_the_checker(self):
        # Checked code never depends on its checker: only `repro check`
        # itself imports repro.staticcheck, inside the command handler.
        probe = (
            "import sys, repro, repro.cli; "
            "print([m for m in sys.modules if m.startswith('repro.staticcheck')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

"""Tests for the production tooling around the rule engine.

Covers the hardened markdown extractor, noqa edge cases, the SARIF
emitter + its structural validator, ``--stats`` and discovery skips.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.staticcheck import iter_markdown_blocks, noqa_map, run_check
from repro.staticcheck.sarif import (
    SARIF_VERSION,
    render_sarif,
    to_sarif_dict,
    validate_sarif,
)

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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------------
# Markdown extraction


class TestMarkdownBlocks:
    def test_plain_block_at_true_offset(self):
        text = "# Title\n\n```python\nx = 1\n```\n"
        assert iter_markdown_blocks(text) == [(3, "x = 1")]

    def test_crlf_endings(self):
        text = "# T\r\n```python\r\nx = 1\r\n```\r\n"
        assert iter_markdown_blocks(text) == [(2, "x = 1")]

    def test_info_string_attributes(self):
        text = '```python title="demo" linenums\nx = 1\n```\n'
        assert iter_markdown_blocks(text) == [(1, "x = 1")]

    def test_pandoc_brace_language(self):
        text = "```{.python}\nx = 1\n```\n"
        assert iter_markdown_blocks(text) == [(1, "x = 1")]

    def test_python3_language_tag(self):
        text = "```python3\nx = 1\n```\n"
        assert iter_markdown_blocks(text) == [(1, "x = 1")]

    def test_unterminated_fence_runs_to_eof(self):
        text = "```python\nx = 1\ny = 2\n"
        assert iter_markdown_blocks(text) == [(1, "x = 1\ny = 2\n")]

    def test_tilde_fence(self):
        text = "~~~python\nx = 1\n~~~\n"
        assert iter_markdown_blocks(text) == [(1, "x = 1")]

    def test_longer_fence_not_closed_by_shorter(self):
        text = "````python\nx = 1\n```\ny = 2\n````\n"
        assert iter_markdown_blocks(text) == [(1, "x = 1\n```\ny = 2")]

    def test_indented_fence_body_dedented(self):
        text = "- item\n\n  ```python\n  x = 1\n  ```\n"
        # fences indented ≤3 spaces open blocks; indent is stripped.
        assert iter_markdown_blocks(text) == [(3, "x = 1")]

    def test_non_python_blocks_skipped(self):
        text = "```bash\nls\n```\n\n```json\n{}\n```\n"
        assert iter_markdown_blocks(text) == []

    def test_findings_carry_true_line_numbers(self, tmp_path):
        md = write(
            tmp_path, "doc.md",
            "# Doc\n\nProse.\n\n```python\n" + DIRTY + "```\n",
        )
        result = run_check([md], project=False)
        assert result.findings
        # DIRTY's offending line is its second line: 5 fence lines + 2.
        assert {f.line for f in result.findings} == {7}


# ----------------------------------------------------------------------
# noqa edge cases


class TestNoqaEdgeCases:
    def test_bare_noqa_maps_to_none(self):
        assert noqa_map("x = 1  # repro: noqa\n") == {1: None}

    def test_multi_rule_list_with_whitespace(self):
        suppressions = noqa_map(
            "x = 1  # repro: noqa[ DET001 , det002 ,FLOW002]\n"
        )
        assert suppressions == {1: {"DET001", "DET002", "FLOW002"}}

    def test_empty_items_dropped(self):
        assert noqa_map("x = 1  # repro: noqa[DET001,,]\n") == {
            1: {"DET001"}
        }

    def test_noqa_in_markdown_at_true_line(self, tmp_path):
        dirty = DIRTY.replace(
            "np.random.randn(3)",
            "np.random.randn(3)  # repro: noqa[DET001]",
        )
        md = write(
            tmp_path, "doc.md", "# Doc\n\n```python\n" + dirty + "```\n"
        )
        assert run_check([md], project=False).findings == []

    def test_wrong_line_markdown_noqa_does_not_suppress(self, tmp_path):
        md = write(
            tmp_path, "doc.md",
            "# repro: noqa[DET001]\n\n```python\n" + DIRTY + "```\n",
        )
        assert run_check([md], project=False).findings


# ----------------------------------------------------------------------
# SARIF


class TestSarif:
    def test_real_output_validates(self, tmp_path):
        write(tmp_path, "mod.py", DIRTY)
        write(tmp_path, "doc.md", "```python\n" + DIRTY + "```\n")
        result = run_check([str(tmp_path)], project=False)
        doc = to_sarif_dict(result)
        assert validate_sarif(doc) == []
        assert doc["version"] == SARIF_VERSION

    def test_result_shape(self, tmp_path):
        mod = write(tmp_path, "mod.py", DIRTY)
        doc = to_sarif_dict(run_check([mod], project=False))
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        declared = [r["id"] for r in rules]
        assert declared == sorted(declared)
        for res in run["results"]:
            assert res["ruleId"] == rules[res["ruleIndex"]]["id"]
            location = res["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
            assert location["region"]["startLine"] >= 1

    def test_render_is_json(self, tmp_path):
        mod = write(tmp_path, "mod.py", CLEAN)
        doc = json.loads(render_sarif(run_check([mod], project=False)))
        assert doc["runs"][0]["results"] == []

    def test_validator_rejects_malformed(self):
        assert validate_sarif([]) != []
        assert validate_sarif({"version": "2.1.0", "runs": []}) != []
        bad_result = {
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {"name": "x", "rules": []}},
                "results": [{
                    "ruleId": "NOPE", "ruleIndex": 0,
                    "level": "bogus", "message": {},
                }],
            }],
        }
        errors = validate_sarif(bad_result)
        assert any("level" in e for e in errors)
        assert any("message.text" in e for e in errors)

    def test_cli_sarif_format(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.py", DIRTY)
        assert main(["check", mod, "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"]


# ----------------------------------------------------------------------
# --stats


class TestStats:
    def test_stats_flag_prints_to_stderr(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.py", CLEAN)
        main(["check", mod, "--stats"])
        err = capsys.readouterr().err
        assert "slowest" in err.lower()


# ----------------------------------------------------------------------
# Discovery skips


class TestDiscoverySkips:
    @pytest.mark.parametrize("where", [
        ".venv/lib/mod.py",
        "__pycache__/mod.py",
        ".hypothesis/mod.py",
    ])
    def test_vendored_and_derived_trees_skipped(self, tmp_path, where):
        write(tmp_path, where, DIRTY)
        assert run_check([str(tmp_path)], project=False).num_files == 0

    def test_benchmarks_sources_still_checked(self, tmp_path):
        write(tmp_path, "benchmarks/e2e/workloads.py", CLEAN)
        assert run_check([str(tmp_path)], project=False).num_files == 1

"""Tests for the production tooling around the rule engine.

Covers the hardened markdown extractor, noqa edge cases (and their
interplay with baselines), the SARIF emitter + its structural
validator, baseline freezing, autofix idempotency, and incremental
cache correctness (warm runs bit-identical, edits invalidated
transitively through the import graph, ruleset changes clearing).
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.staticcheck import (
    AnalysisCache,
    iter_markdown_blocks,
    noqa_map,
    run_check,
)
from repro.staticcheck.autofix import apply_fixes
from repro.staticcheck.baseline import (
    BASELINE_SCHEMA_VERSION,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.staticcheck.findings import Finding, Severity
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


def finding(path="a.py", line=1, rule="DET001", message="m", col=1):
    return Finding(
        path=path, line=line, col=col, rule=rule,
        severity=Severity.ERROR, message=message,
    )


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
            "x = 1  # repro: noqa[ DET001 , det002 ,PAR001]\n"
        )
        assert suppressions == {1: {"DET001", "DET002", "PAR001"}}

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
# Baseline


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(path, [finding(), finding(rule="DET004")])
        frozen = load_baseline(path)
        assert ("a.py", "DET001", "m") in frozen
        assert ("a.py", "DET004", "m") in frozen

    def test_line_insensitive_match(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(path, [finding(line=3)])
        split = apply_baseline([finding(line=99)], load_baseline(path))
        assert split.new == [] and len(split.suppressed) == 1

    def test_multiplicity_second_occurrence_is_new(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(path, [finding()])
        split = apply_baseline(
            [finding(line=1), finding(line=2)], load_baseline(path)
        )
        assert len(split.new) == 1 and len(split.suppressed) == 1

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(path, [finding(rule="GONE1")])
        split = apply_baseline([], load_baseline(path))
        assert split.stale == [("a.py", "GONE1", "m")]

    def test_missing_and_bad_files_are_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []
        bad = tmp_path / "bad.json"
        bad.write_text("not json{")
        assert load_baseline(bad) == []

    def test_version_mismatch_ignored(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "version": BASELINE_SCHEMA_VERSION + 1,
            "findings": [{"path": "a.py", "rule": "X", "message": "m"}],
        }))
        assert load_baseline(path) == []

    def test_cli_write_then_gate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dirty = write(tmp_path, "mod.py", DIRTY)
        base = str(tmp_path / "base.json")
        assert main(["check", dirty, "--write-baseline", base]) == 0
        capsys.readouterr()
        # frozen findings no longer fail the gate…
        assert main(["check", dirty, "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "baseline:" in out and "frozen" in out
        # …but a new violation still does.
        dirtier = write(
            tmp_path, "mod.py", DIRTY + "y = np.random.rand(2)\n"
        )
        assert main(["check", dirtier, "--baseline", base]) == 1

    def test_noqa_beats_baseline_and_goes_stale(self, tmp_path, capsys):
        # a finding first frozen, then noqa'd: the suppression wins at
        # check time and its baseline entry is reported stale.
        dirty = write(tmp_path, "mod.py", DIRTY)
        base = str(tmp_path / "base.json")
        assert main(["check", dirty, "--write-baseline", base]) == 0
        capsys.readouterr()
        write(
            tmp_path, "mod.py",
            DIRTY.replace(
                "np.random.randn(3)",
                "np.random.randn(3)  # repro: noqa[DET001]",
            ),
        )
        assert main(["check", dirty, "--baseline", base]) == 0
        assert "stale" in capsys.readouterr().out


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
# Autofix


class TestAutofix:
    def test_det003_fixed_in_docs_only(self):
        sources = {
            "docs/demo.md": "rng = np.random.default_rng()\n",
            "src/repro/core/mod.py": "rng = np.random.default_rng()\n",
        }
        findings = [
            finding(path="docs/demo.md", rule="DET003"),
            finding(path="src/repro/core/mod.py", rule="DET003"),
        ]
        result = apply_fixes(findings, sources)
        assert sources["docs/demo.md"] == "rng = np.random.default_rng(0)\n"
        assert "default_rng()" in sources["src/repro/core/mod.py"]
        assert result.fixed["DET003"] == 1
        assert len(result.remaining) == 1

    def test_det004_sorted_rewrite(self):
        sources = {"a.py": "out = list(set(xs))\n"}
        apply_fixes([finding(rule="DET004", col=7)], sources)
        assert sources["a.py"] == "out = sorted(set(xs))\n"

    def test_reg005_requires_factory_in_scope(self):
        body = "from repro.env import make_delay_model\nd = NoDelay()\n"
        sources = {"a.py": body}
        apply_fixes([finding(rule="REG005", line=2)], sources)
        assert 'make_delay_model("none")' in sources["a.py"]
        # without the factory import, the rewrite is refused.
        sources = {"a.py": "d = NoDelay()\n"}
        result = apply_fixes([finding(rule="REG005")], sources)
        assert sources["a.py"] == "d = NoDelay()\n"
        assert result.remaining

    def test_suppress_inserts_and_merges_noqa(self):
        sources = {"a.py": "x = 1\ny = 2  # repro: noqa[DET004]\n"}
        apply_fixes(
            [
                finding(rule="PAR001", line=1),
                finding(rule="PAR001", line=2),
            ],
            sources, suppress={"PAR001"},
        )
        lines = sources["a.py"].splitlines()
        assert "# repro: noqa[PAR001]" in lines[0]
        assert "TODO" in lines[0]
        assert "# repro: noqa[DET004,PAR001]" in lines[1]

    def test_fix_is_idempotent(self, tmp_path, capsys):
        path = write(
            tmp_path, "docs/demo.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert main(["check", path, "--fix"]) == 0
        fixed_once = pathlib.Path(path).read_text()
        assert "default_rng(0)" in fixed_once
        capsys.readouterr()
        assert main(["check", path, "--fix"]) == 0
        assert pathlib.Path(path).read_text() == fixed_once
        # second run fixed nothing (stderr carries the fix report).
        assert "fixed" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# Incremental cache


class TestCache:
    def test_warm_run_bit_identical(self, tmp_path):
        write(tmp_path, "repro/mod.py", DIRTY)
        write(tmp_path, "repro/other.py", CLEAN)
        # the default dotfile name is skipped by discovery even though
        # it lives inside the checked tree.
        cache_path = tmp_path / ".repro-check-cache.json"
        cache = AnalysisCache(cache_path)
        cold = run_check([str(tmp_path)], cache=cache)
        cache.save()
        warm = run_check(
            [str(tmp_path)], cache=AnalysisCache(cache_path)
        )
        assert [f.to_dict() for f in sorted(warm.findings)] == [
            f.to_dict() for f in sorted(cold.findings)
        ]
        assert warm.cache_misses == 0
        assert warm.cache_hits > 0

    def test_edit_invalidates_only_changed_file(self, tmp_path):
        a = write(tmp_path, "repro/a.py", CLEAN)
        write(tmp_path, "repro/b.py", CLEAN)
        cache_path = tmp_path / "cache.json"
        cache = AnalysisCache(cache_path)
        run_check([str(tmp_path)], cache=cache)
        cache.save()
        pathlib.Path(a).write_text(DIRTY)
        warm = run_check(
            [str(tmp_path)], cache=AnalysisCache(cache_path)
        )
        assert any(f.rule == "DET001" for f in warm.findings)
        assert warm.cache_misses >= 1
        assert warm.cache_hits >= 1

    def test_edit_invalidates_importers_transitively(self, tmp_path):
        # dep draws from its rng param; user passes a Generator in a
        # set-loop, but only after dep is *edited* to consume it.
        write(tmp_path, "repro/__init__.py", "")
        write(
            tmp_path, "repro/dep.py",
            "def delay_for(w, rng):\n    return 1.0\n",
        )
        write(
            tmp_path, "repro/user.py",
            "import numpy as np\n"
            "from repro.dep import delay_for\n"
            "def jitter(ws):\n"
            "    rng = np.random.default_rng(0)\n"
            "    return {w: delay_for(w, rng) for w in set(ws)}\n",
        )
        cache_path = tmp_path / "cache.json"
        cache = AnalysisCache(cache_path)
        cold = run_check([str(tmp_path)], cache=cache)
        assert not any(f.rule == "FLOW003" for f in cold.findings)
        cache.save()
        write(
            tmp_path, "repro/dep.py",
            "def delay_for(w, rng):\n    return rng.exponential()\n",
        )
        warm = run_check(
            [str(tmp_path)], cache=AnalysisCache(cache_path)
        )
        flagged = [f for f in warm.findings if f.rule == "FLOW003"]
        # user.py itself is unchanged: only the closure digest pulled
        # the new dep summary through the import graph.
        assert len(flagged) == 1
        assert flagged[0].path.endswith("user.py")

    def test_ruleset_change_clears_cache(self, tmp_path):
        write(tmp_path, "repro/mod.py", CLEAN)
        cache_path = tmp_path / "cache.json"
        cache = AnalysisCache(cache_path)
        run_check([str(tmp_path)], cache=cache)
        cache.save()
        narrowed = AnalysisCache(cache_path)
        narrow = run_check(
            [str(tmp_path)], select=["DET"], cache=narrowed
        )
        assert narrow.cache_hits == 0

    def test_json_report_carries_timing_and_cache(self, tmp_path, capsys):
        mod = write(tmp_path, "mod.py", CLEAN)
        cache_path = str(tmp_path / "cc.json")
        main([
            "check", mod, "--format", "json",
            "--cache", "--cache-path", cache_path,
        ])
        data = json.loads(capsys.readouterr().out)
        assert "timing" in data and "files" in data["timing"]
        assert data["timing"]["total_seconds"] >= 0
        assert data["cache"]["misses"] >= 1
        capsys.readouterr()
        main([
            "check", mod, "--format", "json",
            "--cache", "--cache-path", cache_path,
        ])
        data = json.loads(capsys.readouterr().out)
        assert data["cache"]["misses"] == 0
        assert data["cache"]["hits"] >= 1

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

"""Tests for :mod:`repro.staticcheck` — the rule engine and every rule.

Each rule family gets at least one minimal offending snippet asserted
to be caught, and a clean twin asserted clean; the fixtures are inline
strings so the full-repo run (also asserted clean here) never trips
over them.
"""

import pathlib
import textwrap

import pytest

from repro.staticcheck import (
    RULE_REGISTRY,
    StaticCheckError,
    check_source,
    noqa_map,
    run_check,
)

REPO = pathlib.Path(__file__).resolve().parent.parent

SIM_PATH = "src/repro/simulation/somemodule.py"


def rules_of(findings):
    return [f.rule for f in findings]


def check(source, scope_path="src/repro/engine/mod.py", **kw):
    return check_source(textwrap.dedent(source), scope_path=scope_path, **kw)


# ----------------------------------------------------------------------
# Rule registry / engine mechanics


class TestEngine:
    def test_all_rule_families_registered(self):
        families = {rule_id[:3] for rule_id in RULE_REGISTRY}
        assert families == {"DET", "TIM"}

    def test_syntax_error_is_a_finding(self):
        findings = check_source("def broken(:\n")
        assert rules_of(findings) == ["GEN001"]

    def test_clean_snippet_is_clean(self):
        findings = check(
            """
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(4)
            """
        )
        assert findings == []

    def test_select_restricts_rules(self):
        src = "import numpy as np\nx = np.random.randn(3)\n"
        assert rules_of(check(src, select={"DET001"})) == ["DET001"]
        assert check(src, select={"TIME002"}) == []

    def test_noqa_map_parses_variants(self):
        src = (
            "a = 1  # repro: noqa\n"
            "b = 2  # repro: noqa[DET001]\n"
            "c = 3  # repro: noqa[DET001, TIME002]\n"
            "d = 4\n"
        )
        m = noqa_map(src)
        assert m[1] is None
        assert m[2] == {"DET001"}
        assert m[3] == {"DET001", "TIME002"}
        assert 4 not in m

    def test_noqa_suppresses_matching_rule_only(self):
        caught = check(
            "import numpy as np\n"
            "x = np.random.randn(3)  # repro: noqa[TIME002]\n"
        )
        assert rules_of(caught) == ["DET001"]
        clean = check(
            "import numpy as np\n"
            "x = np.random.randn(3)  # repro: noqa[DET001]\n"
        )
        assert clean == []

    def test_unknown_select_rule_is_usage_error(self):
        with pytest.raises(StaticCheckError):
            run_check([str(REPO / "src" / "repro" / "cli.py")],
                      select=["NOPE999"])

    def test_missing_path_is_usage_error(self):
        with pytest.raises(StaticCheckError):
            run_check([str(REPO / "does-not-exist")])


# ----------------------------------------------------------------------
# Determinism rules


class TestDeterminismRules:
    def test_det001_np_random_module_call(self):
        findings = check("import numpy as np\nx = np.random.randn(3)\n")
        assert "DET001" in rules_of(findings)

    def test_det001_full_numpy_name(self):
        findings = check("import numpy\nx = numpy.random.shuffle([1])\n")
        assert "DET001" in rules_of(findings)

    def test_det001_stdlib_random(self):
        findings = check("import random\nx = random.choice([1, 2])\n")
        assert "DET001" in rules_of(findings)

    def test_det001_from_import(self):
        findings = check("from numpy.random import randn\n")
        assert "DET001" in rules_of(findings)

    def test_det001_ignores_methods_on_generators(self):
        findings = check(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.choice([1, 2])
            """
        )
        assert findings == []

    def test_det001_ignores_stdlib_names_without_import(self):
        # `random` here is somebody's object, not the stdlib module.
        findings = check("x = obj.random.choice([1])\n")
        assert findings == []

    def test_det002_wall_clock_in_core_scope(self):
        src = "import time\nt = time.time()\n"
        assert rules_of(check(src)) == ["DET002"]
        # ...but not outside the library.
        assert check(src, scope_path="examples/demo.py") == []

    def test_det002_datetime_now(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert rules_of(check(src)) == ["DET002"]

    @pytest.mark.parametrize("source, scope_path", [
        pytest.param(
            "import datetime\nt = datetime.datetime.now()\n",
            "src/repro/serve/jobs.py", id="serve-datetime",
        ),
        pytest.param(
            "def f(loop):\n    return loop.time()\n",
            "src/repro/engine/core.py", id="engine-loop-time",
        ),
        pytest.param(
            "import time\ns = time.perf_counter\n",
            "src/repro/engine/core.py", id="engine-reference",
        ),
        pytest.param(
            "import time\nt = time.time()\n",
            "src/repro/training/trainer.py", id="training",
        ),
        pytest.param(
            "import time\nstamp = time.monotonic()\n",
            "src/repro/serve/coordinator.py", id="serve-monotonic",
        ),
        pytest.param(
            "def quantum(loop):\n    return loop.time()\n",
            "src/repro/serve/coordinator.py", id="serve-loop-time",
        ),
        pytest.param(
            "from time import perf_counter\n",
            "src/repro/straggler/delays.py", id="from-import",
        ),
        pytest.param(
            "import datetime\nt = datetime.now()\n",
            "src/repro/obs/tracer.py", id="obs-datetime",
        ),
    ])
    def test_det002_wall_clock_read(self, source, scope_path):
        # One rule over the whole library: each call, reference or
        # import is one finding, wherever in the library it sits.
        assert rules_of(check(source, scope_path=scope_path)) == ["DET002"]

    def test_det002_sleep_is_sanctioned(self):
        # Sleeping paces execution; it produces no value that could
        # contaminate a simulated-time result.
        assert check(
            "import time\nfrom time import sleep\n\n"
            "def pace():\n    time.sleep(0.01)\n",
            scope_path="src/repro/serve/coordinator.py",
        ) == []

    @pytest.mark.parametrize("site", [
        "serve/mailbox.py", "parallel/executor.py", "experiments/sweep.py",
    ])
    def test_det002_sanctioned_sites(self, site):
        assert check(
            "import time\ndeadline = time.monotonic() + 5\n",
            scope_path=f"src/repro/{site}",
        ) == []

    def test_det002_scope_is_the_library(self):
        src = "import time\nstamp = time.time()\n"
        assert rules_of(
            check(src, scope_path="src/repro/cli/serve.py")
        ) == ["DET002"]
        assert check(src, scope_path="tests/test_serve.py") == []
        assert check(src, scope_path="benchmarks/e2e/run.py") == []
        # A checkout directory named `repro` is not the library.
        assert check(src, scope_path="/ci/repro/tests/test_serve.py") == []

    def test_det003_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(check(src)) == ["DET003"]
        # DET003 covers the whole library plus runnable docs/examples;
        # unrelated scripts stay out of scope.
        assert rules_of(
            check(src, scope_path="examples/demo.py")
        ) == ["DET003"]
        assert check(src, scope_path="scripts/demo.py") == []
        assert check(src, scope_path="/ci/repro/tests/test_x.py") == []

    def test_det003_seeded_is_fine(self):
        assert check(
            "import numpy as np\nrng = np.random.default_rng(0)\n"
        ) == []

    def test_det004_list_of_set(self):
        findings = check("order = list(set(workers))\n")
        assert rules_of(findings) == ["DET004"]

    def test_det004_for_over_set(self):
        findings = check("for w in set(workers):\n    pass\n")
        assert rules_of(findings) == ["DET004"]

    def test_det004_listdir_unsorted_vs_sorted(self):
        assert rules_of(
            check("import os\nnames = os.listdir('.')\n")
        ) == ["DET004"]
        assert check("import os\nnames = sorted(os.listdir('.'))\n") == []

    def test_det004_sorted_set_is_fine(self):
        assert check("order = sorted(set(workers))\n") == []

    @pytest.mark.parametrize("source", [
        "delays = [rng.random() for w in set(workers)]\n",
        "alive = {w for w in {1, 2, 3}}\n",
        "gates = {w: rng.random() for w in frozenset(workers)}\n",
        "alive = sorted(w for w in set(workers) if rng.random() < p)\n",
        "delays = [rng.random() for w in alive.union(extra)]\n",
        "delays = [rng.random() for w in set(alive) - dead]\n",
    ], ids=["listcomp", "setcomp-over-display", "dictcomp-over-frozenset",
            "genexp-under-sorted", "set-method", "set-operator"])
    def test_det004_comprehension_over_set(self, source):
        assert rules_of(check(source)) == ["DET004"]

    def test_det004_covers_straggler_models(self):
        src = "for w in set(workers):\n    pass\n"
        assert rules_of(
            check(src, scope_path="src/repro/straggler/failures.py")
        ) == ["DET004"]

    def test_det004_leaves_serve_alone(self):
        src = "import glob\nnames = glob.glob('jobs/*.json')\n"
        assert check(src, scope_path="src/repro/serve/mailbox.py") == []


# ----------------------------------------------------------------------
# Time-unit rules


class TestTimeUnitRules:
    def test_time002_out_of_scope(self):
        assert check(
            "def wait(deadline):\n    return deadline\n",
            scope_path="src/repro/core/x.py",
        ) == []

    def test_time002_undocumented_time_param(self):
        findings = check(
            """
            def wait(deadline):
                return deadline * 2
            """,
            scope_path=SIM_PATH,
        )
        assert rules_of(findings) == ["TIME002"]

    def test_time002_documented_in_function_docstring(self):
        assert check(
            '''
            def wait(deadline):
                """Block until ``deadline`` (step-relative seconds)."""
                return deadline * 2
            ''',
            scope_path=SIM_PATH,
        ) == []

    def test_time002_documented_in_class_docstring(self):
        assert check(
            '''
            class Policy:
                """Deadline is absolute simulated seconds."""

                def __init__(self, deadline):
                    self.deadline = deadline
            ''',
            scope_path=SIM_PATH,
        ) == []

    def test_time002_non_time_params_ignored(self):
        assert check(
            "def f(num_workers, fraction):\n    return num_workers\n",
            scope_path=SIM_PATH,
        ) == []

    def test_time002_a_section_citation_is_not_a_unit(self):
        # "Sec." names a section of the paper, not seconds.
        findings = check(
            '''
            class Policy:
                """Reproduces the Sec. VIII-C deadline experiment."""

                def __init__(self, deadline: float):
                    self.deadline = deadline
            ''',
            scope_path=SIM_PATH,
        )
        assert rules_of(findings) == ["TIME002"]

    def test_time002_a_model_typed_delay_is_not_a_time(self):
        assert check(
            '''
            class Stragglers:
                """A fixed set of slow workers."""

                def __init__(
                    self,
                    straggler_delay: DelayModel,
                    background_delay: DelayModel | None = None,
                ):
                    self.slow = straggler_delay
            ''',
            scope_path=SIM_PATH,
        ) == []

    def test_time002_a_numeric_annotation_stays_a_time(self):
        findings = check(
            "def wait(timeout: Optional[float] = None):\n"
            "    return timeout\n",
            scope_path=SIM_PATH,
        )
        assert rules_of(findings) == ["TIME002"]


# ----------------------------------------------------------------------
# The acceptance gate: the repo itself is clean.


class TestFullRepo:
    def test_repo_tree_is_clean(self):
        result = run_check(
            [REPO / "src", REPO / "tests", REPO / "examples"]
        )
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings
        )
        assert result.num_files > 100

    def test_markdown_docs_are_clean(self):
        result = run_check([REPO / "README.md", REPO / "docs"])
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings
        )

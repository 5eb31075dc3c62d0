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
    check_spec_mapping,
    noqa_map,
    run_check,
    spec_feasibility_problems,
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
        assert families == {"DET", "FLO", "SPE", "TIM"}

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
        assert check(src, select={"TIME001"}) == []

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
            "x = np.random.randn(3)  # repro: noqa[TIME001]\n"
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
        # ...but not outside the deterministic core.
        assert check(src, scope_path="examples/demo.py") == []

    def test_det002_datetime_now(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert rules_of(check(src)) == ["DET002"]

    def test_det003_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(check(src)) == ["DET003"]
        # DET003 covers the whole library plus runnable docs/examples;
        # unrelated scripts stay out of scope.
        assert rules_of(
            check(src, scope_path="examples/demo.py")
        ) == ["DET003"]
        assert check(src, scope_path="scripts/demo.py") == []

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


# ----------------------------------------------------------------------
# Time-unit rules


class TestTimeUnitRules:
    def test_time001_comparison_mixing_origins(self):
        findings = check(
            "if proceed_time <= step_end:\n    pass\n", scope_path=SIM_PATH
        )
        assert rules_of(findings) == ["TIME001"]

    def test_time001_adding_two_absolutes(self):
        findings = check("t = step_start + step_end\n", scope_path=SIM_PATH)
        assert rules_of(findings) == ["TIME001"]

    def test_time001_relative_minus_absolute(self):
        findings = check(
            "t = result.proceed_time - self.step_start\n",
            scope_path=SIM_PATH,
        )
        assert rules_of(findings) == ["TIME001"]

    def test_time001_cross_origin_assignment(self):
        findings = check(
            "step_end = outcome.proceed_time\n", scope_path=SIM_PATH
        )
        assert rules_of(findings) == ["TIME001"]

    def test_time001_sanctioned_conversions_clean(self):
        # absolute + relative -> absolute; absolute - absolute -> duration.
        assert check(
            "end = step_start + outcome.proceed_time\n"
            "duration = step_end - step_start\n",
            scope_path=SIM_PATH,
        ) == []

    def test_time001_out_of_scope(self):
        assert check(
            "t = step_start + step_end\n", scope_path="src/repro/core/x.py"
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

    def test_time003_wallclock_read_in_serve(self):
        findings = check(
            "import time\nstamp = time.monotonic()\n",
            scope_path="src/repro/serve/coordinator.py",
        )
        assert rules_of(findings) == ["TIME003"]

    def test_time003_loop_time_in_serve(self):
        findings = check(
            "def quantum(loop):\n    return loop.time()\n",
            scope_path="src/repro/serve/coordinator.py",
        )
        assert rules_of(findings) == ["TIME003"]

    def test_time003_from_import(self):
        findings = check(
            "from time import perf_counter\n",
            scope_path="src/repro/straggler/delays.py",
        )
        assert rules_of(findings) == ["TIME003"]

    def test_time003_engine_is_det002_territory(self):
        # The deterministic core is DET002's beat; TIME003 covers the
        # complement, so exactly one rule fires per wall-clock read.
        findings = check(
            "import time\nt = time.time()\n",
            scope_path="src/repro/engine/core.py",
        )
        assert "TIME003" not in rules_of(findings)

    def test_time003_datetime_now(self):
        findings = check(
            "import datetime\nt = datetime.now()\n",
            scope_path="src/repro/obs/tracer.py",
        )
        assert rules_of(findings) == ["TIME003"]

    def test_time003_sleep_is_sanctioned(self):
        # Sleeping paces execution; it produces no value that could
        # contaminate a simulated-time result.
        assert check(
            "import time\nfrom time import sleep\n\n"
            "def pace():\n    time.sleep(0.01)\n",
            scope_path="src/repro/serve/coordinator.py",
        ) == []

    def test_time003_mailbox_is_sanctioned(self):
        assert check(
            "import time\ndeadline = time.monotonic() + 5\n",
            scope_path="src/repro/serve/mailbox.py",
        ) == []

    def test_time003_out_of_scope(self):
        assert check(
            "import time\nstamp = time.time()\n",
            scope_path="src/repro/cli/serve.py",
        ) == []


# ----------------------------------------------------------------------
# Spec feasibility


def base_spec(**over):
    spec = {
        "name": "t", "scheme": "is-gc-cr", "num_workers": 8,
        "partitions_per_worker": 2, "wait_for": 4,
    }
    spec.update(over)
    return spec


class TestSpecFeasibility:
    def test_feasible_cr_spec_clean(self):
        assert spec_feasibility_problems(base_spec()) == []

    def test_cr_with_c_equal_n_rejected_citing_constraint(self):
        problems = spec_feasibility_problems(
            base_spec(partitions_per_worker=8)
        )
        assert len(problems) == 1
        # The message must cite the violated constraint.
        assert "1 <= c < n" in problems[0]
        assert "Theorem 1" in problems[0]

    def test_fr_divisibility(self):
        problems = spec_feasibility_problems(
            base_spec(scheme="is-gc-fr", partitions_per_worker=3)
        )
        assert any("c | n" in p for p in problems)

    def test_hr_missing_params(self):
        problems = spec_feasibility_problems(base_spec(scheme="is-gc-hr"))
        assert any("num_groups" in p for p in problems)

    def test_generic_isgc_defaults_to_cr(self):
        assert spec_feasibility_problems(base_spec(scheme="is-gc")) == []
        problems = spec_feasibility_problems(
            base_spec(scheme="is-gc", partitions_per_worker=8)
        )
        assert any("Theorem 1" in p for p in problems)

    def test_generic_isgc_routes_family_checks(self):
        problems = spec_feasibility_problems(base_spec(
            scheme="is-gc",
            scheme_params={"placement": "fr"},
            partitions_per_worker=3,
        ))
        assert any("c | n" in p for p in problems)

    def test_generic_isgc_hr_family_feasible(self):
        assert spec_feasibility_problems(base_spec(
            scheme="is-gc",
            scheme_params={
                "placement": "hr", "c1": 2, "c2": 1, "num_groups": 3,
            },
            num_workers=12,
            partitions_per_worker=3,
        )) == []

    def test_generic_isgc_unknown_family_did_you_mean(self):
        problems = spec_feasibility_problems(base_spec(
            scheme="is-gc", scheme_params={"placement": "cyclc"},
        ))
        assert len(problems) == 1
        assert "did you mean 'cyclic'" in problems[0]
        assert "registered families" in problems[0]

    def test_hr_group_divisibility(self):
        problems = spec_feasibility_problems(base_spec(
            scheme="is-gc-hr", num_workers=8, partitions_per_worker=3,
            scheme_params={"c1": 1, "c2": 2, "num_groups": 3},
        ))
        assert any("g | n" in p for p in problems)

    def test_hr_theorem6_completeness(self):
        # n0 = 6 > c + c1 = 3 + 1 violates within-group completeness.
        problems = spec_feasibility_problems(base_spec(
            scheme="is-gc-hr", num_workers=12, partitions_per_worker=3,
            scheme_params={"c1": 1, "c2": 2, "num_groups": 2},
        ))
        assert any("Theorem 6" in p for p in problems)

    def test_hr_partitions_mismatch(self):
        problems = spec_feasibility_problems(base_spec(
            scheme="is-gc-hr", num_workers=12, partitions_per_worker=1,
            scheme_params={"c1": 1, "c2": 2, "num_groups": 3},
        ))
        assert any("c1 + c2" in p for p in problems)

    def test_valid_hr_spec_clean(self):
        assert spec_feasibility_problems(base_spec(
            scheme="is-gc-hr", num_workers=12, partitions_per_worker=3,
            wait_for=6, scheme_params={"c1": 1, "c2": 2, "num_groups": 3},
        )) == []

    def test_wait_for_range(self):
        problems = spec_feasibility_problems(base_spec(wait_for=9))
        assert any("1 <= w <= n" in p for p in problems)

    def test_wait_for_required_for_waiting_schemes(self):
        problems = spec_feasibility_problems(base_spec(wait_for=None))
        assert any("wait_for" in p for p in problems)

    def test_sync_sgd_needs_no_wait_for(self):
        assert spec_feasibility_problems({
            "scheme": "sync-sgd", "num_workers": 4, "wait_for": None,
        }) == []

    def test_bad_num_workers(self):
        problems = spec_feasibility_problems(
            {"scheme": "sync-sgd", "num_workers": 0}
        )
        assert any("num_workers" in p for p in problems)

    def test_spec001_via_mapping(self):
        findings = check_spec_mapping(
            base_spec(partitions_per_worker=8), path="examples/specs/x.json"
        )
        assert rules_of(findings) == ["SPEC001"]

    def test_spec002_literal_in_example(self):
        findings = check(
            """
            spec = ExperimentSpec(
                name="x", scheme="is-gc-cr", num_workers=4,
                partitions_per_worker=4, wait_for=2,
            )
            """,
            scope_path="examples/demo.py",
        )
        assert rules_of(findings) == ["SPEC002"]

    def test_spec002_skips_unresolved_fields(self):
        # wait_for computed at runtime: no "missing wait_for" guess.
        assert check(
            """
            spec = ExperimentSpec(
                name="x", scheme="is-gc-cr", num_workers=8,
                partitions_per_worker=2, wait_for=pick_w(),
            )
            """,
            scope_path="examples/demo.py",
        ) == []

    def test_spec002_exempts_tests(self):
        assert check(
            """
            spec = ExperimentSpec(
                name="x", scheme="is-gc-cr", num_workers=4,
                partitions_per_worker=4, wait_for=2,
            )
            """,
            scope_path="tests/test_whatever.py",
        ) == []


# ----------------------------------------------------------------------
# Pool-boundary seed discipline (FLOW002)


def pool_check(tmp_path, source):
    """FLOW002 findings for ``source`` placed as module ``repro.sweep``."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    module = package / "sweep.py"
    module.write_text(textwrap.dedent(source))
    return run_check([module], select=["FLOW002"]).findings


class TestParallelismRules:
    def test_submit_with_seed_arithmetic_flagged(self, tmp_path):
        findings = pool_check(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(fn, seed, n):
                with ProcessPoolExecutor(4) as pool:
                    return [pool.submit(fn, seed + i) for i in range(n)]
            """,
        )
        assert rules_of(findings) == ["FLOW002"]

    def test_map_over_derived_seeds_flagged(self, tmp_path):
        findings = pool_check(
            tmp_path,
            """
            from multiprocessing import Pool

            def sweep(fn, seed, n):
                with Pool(4) as pool:
                    return pool.map(fn, [seed * 1000 + i for i in range(n)])
            """,
        )
        assert rules_of(findings) == ["FLOW002"]

    def test_fork_context_counts_as_pool_usage(self, tmp_path):
        findings = pool_check(
            tmp_path,
            """
            import multiprocessing as mp

            def sweep(fn, base_seed, n):
                ctx = mp.get_context("fork")
                pool = ctx.Pool(2)
                return pool.map_async(fn, [base_seed + i for i in range(n)])
            """,
        )
        assert rules_of(findings) == ["FLOW002"]

    def test_spawned_seed_sequences_are_clean(self, tmp_path):
        assert pool_check(
            tmp_path,
            """
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            def sweep(fn, seed, n):
                seeds = np.random.SeedSequence(seed).spawn(n)
                with ProcessPoolExecutor(4) as pool:
                    return [pool.submit(fn, s) for s in seeds]
            """,
        ) == []

    def test_seed_sequence_wrapper_inside_dispatch_is_clean(self, tmp_path):
        # SeedSequence(seed + i) keeps derivation in SeedSequence space —
        # exactly the sanctioned fix, even written inline.
        assert pool_check(
            tmp_path,
            """
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            def sweep(fn, seed, n):
                with ProcessPoolExecutor(4) as pool:
                    return [
                        pool.submit(fn, np.random.SeedSequence(seed + i))
                        for i in range(n)
                    ]
            """,
        ) == []

    def test_seed_arithmetic_without_pool_is_clean(self, tmp_path):
        # Serial seed offsets (the figure runners' trial_seed pattern)
        # are fine: no pool boundary, no stream-independence hazard.
        assert pool_check(
            tmp_path,
            """
            def trials(fn, seed, n):
                return [fn(seed + 1000 * trial) for trial in range(n)]
            """,
        ) == []

    def test_noqa_suppresses_flow002(self, tmp_path):
        findings = pool_check(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(fn, seed, n):
                with ProcessPoolExecutor(4) as pool:
                    return [pool.submit(fn, seed + i) for i in range(n)]  # repro: noqa[FLOW002]
            """,
        )
        assert findings == []


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

    def test_shipped_spec_files_are_feasible(self):
        result = run_check([REPO / "examples" / "specs"])
        assert result.findings == []
        assert result.num_files == 4

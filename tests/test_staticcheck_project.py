"""Fixture tests for the whole-project rule family (FLOW).

Each rule gets at least one offending fixture (asserted caught) and a
clean twin (asserted clean).  Fixtures are in-memory module sets built
with :meth:`ProjectIndex.from_sources`, so no files are written and the
full-repo cleanliness assertions elsewhere never trip over them.  The
module names start with ``repro.`` so the ``repro/``-scoped rules
apply.
"""

import textwrap

import pytest

from repro.staticcheck import RULE_REGISTRY
from repro.staticcheck.dataflow import analyze_project
from repro.staticcheck.project import ProjectContext, ProjectIndex


def project_findings(sources, rule_ids):
    """Run the named project rules over ``{dotted: source}`` fixtures."""
    index = ProjectIndex.from_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()}
    )
    ctx = ProjectContext(index=index, summaries=analyze_project(index))
    findings = []
    for rule_id in rule_ids:
        rule = RULE_REGISTRY[rule_id]
        for name in sorted(index.modules):
            info = index.modules[name]
            if rule.applies_to(info.scope_path):
                findings.extend(rule.check(ctx, rule, info))
    return findings


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# FLOW001 — Generator into a memoised/batched kernel


class TestFlow001:
    def test_gen_arg_into_memo_call(self):
        findings = project_findings({
            "repro.decode": """
                import numpy as np

                class Decoder:
                    def decode(self, cache, key, rng):
                        return cache.get_or_compute(key, rng)
                """,
        }, ["FLOW001"])
        assert rules_of(findings) == ["FLOW001"]
        assert "rng" in findings[0].message

    def test_gen_draw_inside_memo_lambda(self):
        findings = project_findings({
            "repro.decode": """
                import numpy as np

                class Decoder:
                    def __init__(self):
                        self._rng = np.random.default_rng(0)

                    def decode(self, cache, key):
                        return cache._memo(
                            key, lambda: self._rng.integers(5)
                        )
                """,
        }, ["FLOW001"])
        assert rules_of(findings) == ["FLOW001"]
        assert "compute callback" in findings[0].message

    def test_gen_into_batch_module_kernel(self):
        findings = project_findings({
            "repro.core.batch": """
                def decode_batch(masks, out):
                    return out
                """,
            "repro.core.caller": """
                import numpy as np

                from repro.core.batch import decode_batch

                def drive(masks):
                    rng = np.random.default_rng(0)
                    return decode_batch(masks, rng)
                """,
        }, ["FLOW001"])
        assert rules_of(findings) == ["FLOW001"]
        assert "repro.core.batch.decode_batch()" in findings[0].message

    def test_drawn_values_passed_in_are_clean(self):
        findings = project_findings({
            "repro.decode": """
                import numpy as np

                class Decoder:
                    def decode(self, cache, key, rng):
                        pick = int(rng.integers(5))
                        return cache.get_or_compute(key, pick)
                """,
        }, ["FLOW001"])
        assert findings == []

    def test_memo_lambda_drawing_from_own_param_is_clean(self):
        # the lambda's own parameter shadows any outer Generator.
        findings = project_findings({
            "repro.decode": """
                def decode(cache, key, pick):
                    return cache.get_or_compute(key, lambda rng: rng)
                """,
        }, ["FLOW001"])
        assert findings == []


# ----------------------------------------------------------------------
# FLOW002 — Generator / derived seed across a pool boundary


class TestFlow002:
    def test_gen_through_pool_submit(self):
        findings = project_findings({
            "repro.sweep": """
                import numpy as np

                def run(pool, task):
                    rng = np.random.default_rng(7)
                    return pool.submit(task, rng)
                """,
        }, ["FLOW002"])
        assert rules_of(findings) == ["FLOW002"]
        assert "Generator" in findings[0].message

    def test_gen_assigned_then_shipped(self):
        # assignment-aware: the Generator flows through a rename.
        findings = project_findings({
            "repro.sweep": """
                import numpy as np

                def run(executor, task):
                    source = np.random.default_rng(7)
                    shipped = source
                    return executor.run(task, shipped)
                """,
        }, ["FLOW002"])
        assert rules_of(findings) == ["FLOW002"]

    def test_derived_seed_through_executor_run(self):
        findings = project_findings({
            "repro.sweep": """
                def run(executor, task, seed, i):
                    child = seed * 1000 + i
                    return executor.run(task, child)
                """,
        }, ["FLOW002"])
        assert rules_of(findings) == ["FLOW002"]
        assert "derived seed" in findings[0].message

    def test_spawned_seed_sequences_are_clean(self):
        findings = project_findings({
            "repro.sweep": """
                import numpy as np

                def run(pool, task, seed, n):
                    children = np.random.SeedSequence(seed).spawn(n)
                    return [pool.submit(task, c) for c in children]
                """,
        }, ["FLOW002"])
        assert findings == []

    def test_non_pool_receiver_is_clean(self):
        # .run() on something that is not pool-ish is not a dispatch.
        findings = project_findings({
            "repro.sweep": """
                import numpy as np

                def run(trainer, task):
                    rng = np.random.default_rng(7)
                    return trainer.run(task, rng)
                """,
        }, ["FLOW002"])
        assert findings == []


# ----------------------------------------------------------------------
# FLOW003 — Generator consumed in hash-ordered iteration


class TestFlow003:
    def test_draw_inside_set_loop(self):
        findings = project_findings({
            "repro.assign": """
                import numpy as np

                def jitter(workers):
                    rng = np.random.default_rng(0)
                    out = {}
                    for w in set(workers):
                        out[w] = rng.normal()
                    return out
                """,
        }, ["FLOW003"])
        assert rules_of(findings) == ["FLOW003"]
        assert "hash-dependent" in findings[0].message

    def test_draw_inside_set_comprehension(self):
        findings = project_findings({
            "repro.assign": """
                import numpy as np

                def jitter(workers):
                    rng = np.random.default_rng(0)
                    return [rng.normal() for w in {1, 2} | set(workers)]
                """,
        }, ["FLOW003"])
        assert rules_of(findings) == ["FLOW003"]

    def test_interprocedural_consumption_in_set_loop(self):
        # the draw hides inside a helper that consumes its rng param.
        findings = project_findings({
            "repro.helpers": """
                def delay_for(worker, rng):
                    return rng.exponential()
                """,
            "repro.assign": """
                import numpy as np

                from repro.helpers import delay_for

                def jitter(workers):
                    rng = np.random.default_rng(0)
                    return {w: delay_for(w, rng) for w in set(workers)}
                """,
        }, ["FLOW003"])
        assert rules_of(findings) == ["FLOW003"]
        assert "delay_for" in findings[0].message

    def test_sorted_view_is_clean(self):
        findings = project_findings({
            "repro.assign": """
                import numpy as np

                def jitter(workers):
                    rng = np.random.default_rng(0)
                    return {w: rng.normal() for w in sorted(set(workers))}
                """,
        }, ["FLOW003"])
        assert findings == []

    def test_list_loop_is_clean(self):
        findings = project_findings({
            "repro.assign": """
                import numpy as np

                def jitter(workers):
                    rng = np.random.default_rng(0)
                    return [rng.normal() for w in list(workers)]
                """,
        }, ["FLOW003"])
        assert findings == []


# ----------------------------------------------------------------------
# Acceptance scenario: the planted violation from the issue


class TestPlantedViolation:
    def test_rng_draw_moved_inside_memo_is_caught(self):
        # exact_decoder draws a tie-break *outside* _memo today; moving
        # the draw inside the memoised lambda must be caught statically.
        findings = project_findings({
            "repro.core.exact_decoder": """
                import numpy as np

                class ExactDecoder:
                    def __init__(self):
                        self._rng = np.random.default_rng(0)

                    def decode(self, available):
                        key = tuple(available)
                        return self._memo(
                            key,
                            lambda: list(range(8))[
                                : int(self._rng.integers(1, 5))
                            ],
                        )

                    def _memo(self, key, compute):
                        return compute()
                """,
        }, ["FLOW001"])
        assert rules_of(findings) == ["FLOW001"]

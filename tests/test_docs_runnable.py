"""Executable documentation: every python code block in the docs runs.

Extracts fenced ```python blocks from README.md and docs/tutorial.md
and executes them in a shared namespace per file (later blocks may use
names defined by earlier ones, as the prose implies).  Keeps the docs
from rotting as the API evolves.

Every script under ``examples/`` is executed the same way, with its
training budget shrunk, so the walk-throughs stay runnable too.
"""

import pathlib
import pkgutil
import re
import tempfile

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

#: blocks that would train for a while are shrunk via these rewrites —
#: semantics preserved, budgets reduced.
_SPEEDUPS = [
    ("max_steps=500", "max_steps=30"),
    ("max_steps=300", "max_steps=30"),
    ("make_cifar_like(2048)", "make_cifar_like(256)"),
    ("trials=4000", "trials=300"),
]


def _python_blocks(path: pathlib.Path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def _run_blocks(path: pathlib.Path):
    blocks = _python_blocks(path)
    assert blocks, f"{path.name} has no python blocks — wrong path?"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        code = block
        for slow, fast in _SPEEDUPS:
            code = code.replace(slow, fast)
        try:
            exec(compile(code, f"{path.name}[block {i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{path.name} code block {i} failed: {exc}\n---\n{block}"
            )


_EXAMPLE_SPEEDUPS = [
    ("max_steps=200", "max_steps=15"),
    ('"samples": 2048', '"samples": 512'),
    ("UPDATE_BUDGET = 240", "UPDATE_BUDGET = 48"),
    ("STEPS = 120", "STEPS = 30"),
    ("STEPS = 150", "STEPS = 12"),
    ("STEPS = 200", "STEPS = 12"),
    ("MAX_STEPS = 600", "MAX_STEPS = 8"),
    ("make_cifar_like(2048, side=8", "make_cifar_like(256, side=8"),
    ("STEPS = 8, 2, 4, 120", "STEPS = 8, 2, 4, 20"),
    ("trials=3000", "trials=200"),
    ("trials=1500", "trials=100"),
    ("max_steps=48 // tau", "max_steps=8 // tau"),
    ("ROUNDS = 1000", "ROUNDS = 100"),
]


def _run_example(path: pathlib.Path):
    """Execute an example script as ``__main__``, budgets reduced."""
    code = path.read_text()
    for slow, fast in _EXAMPLE_SPEEDUPS:
        code = code.replace(slow, fast)
    namespace = {"__name__": "__main__", "__file__": str(path)}
    exec(compile(code, str(path), "exec"), namespace)
    return namespace


def test_quickstart_example_runs(capsys):
    ns = _run_example(REPO / "examples" / "quickstart.py")
    assert "spec" not in ns  # locals stay inside main()
    out = capsys.readouterr().out
    assert "is-gc-cr" in out
    assert "decoded == full g : True" in out


def test_async_vs_isgc_example_runs(capsys):
    _run_example(REPO / "examples" / "async_vs_isgc.py")
    out = capsys.readouterr().out
    assert "sync-sgd" in out
    assert "async staleness" in out


def test_serve_quickstart_example_runs(capsys):
    _run_example(REPO / "examples" / "serve_quickstart.py")
    out = capsys.readouterr().out
    assert "four schemes, one coordinator" in out
    assert "job-0002: cancelled" in out
    assert "demo-job: done" in out


def test_adaptive_placement_example_runs(capsys):
    _run_example(REPO / "examples" / "adaptive_placement.py")
    out = capsys.readouterr().out
    assert "adaptive-is-gc" in out
    assert "recovery before migration" in out


def test_wait_policies_example_runs(capsys):
    _run_example(REPO / "examples" / "wait_policies.py")
    out = capsys.readouterr().out
    for policy in ("wait-2", "wait-6", "deadline 1.0s", "ramp 2→6"):
        assert policy in out


def test_straggler_tolerance_example_runs(capsys):
    _run_example(REPO / "examples" / "straggler_tolerance.py")
    out = capsys.readouterr().out
    for scheme in ("sync-sgd", "is-sgd", "is-gc-fr", "is-gc-cr"):
        assert scheme in out


def test_heterogeneous_cluster_example_runs(capsys):
    _run_example(REPO / "examples" / "heterogeneous_cluster.py")
    out = capsys.readouterr().out
    assert "optimised (slow machines spread)" in out
    assert "τ=4" in out


def test_hybrid_tradeoff_example_runs(capsys):
    _run_example(REPO / "examples" / "hybrid_tradeoff.py")
    out = capsys.readouterr().out
    assert "the CR→FR spectrum" in out


def test_traced_run_example_runs(tmp_path, monkeypatch, capsys):
    # The example exports its trace under tempfile.mkdtemp().
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    _run_example(REPO / "examples" / "traced_run.py")
    out = capsys.readouterr().out
    assert "(live == loaded)" in out
    assert list(tmp_path.glob("*/traced_run.jsonl"))


def test_every_example_runs_in_a_test():
    """No example script is left out of the tests above."""
    source = pathlib.Path(__file__).read_text()
    missing = [
        path.name for path in sorted((REPO / "examples").glob("*.py"))
        if f'"{path.name}"' not in source
    ]
    assert missing == []


def test_serving_doc_blocks_run(tmp_path, monkeypatch, capsys):
    # The serving doc's blocks drop a mailbox directory in the cwd.
    monkeypatch.chdir(tmp_path)
    _run_blocks(REPO / "docs" / "serving.md")


def test_readme_blocks_run(capsys):
    _run_blocks(REPO / "README.md")


def test_tutorial_blocks_run(capsys):
    _run_blocks(REPO / "docs" / "tutorial.md")


def test_observability_blocks_run(tmp_path, monkeypatch, capsys):
    # These blocks write/read run.jsonl relative to the cwd.
    monkeypatch.chdir(tmp_path)
    _run_blocks(REPO / "docs" / "observability.md")


def test_static_analysis_catalogue_is_generated():
    """The rule table in docs/static_analysis.md is the generated one.

    The docs promise the catalogue is produced by ``repro check
    --list-rules --format markdown``; regenerate and compare, so the
    table cannot drift from the registry.
    """
    from repro.staticcheck.report import catalogue_markdown

    text = (REPO / "docs" / "static_analysis.md").read_text()
    match = re.search(
        r"<!-- BEGIN RULE CATALOGUE -->\n(.*?)\n<!-- END RULE CATALOGUE -->",
        text,
        flags=re.DOTALL,
    )
    assert match, "catalogue markers missing from docs/static_analysis.md"
    assert match.group(1).strip() == catalogue_markdown().strip()


def _uncatalogued(doc: str, registry) -> list:
    """Families of ``registry`` with no catalogue entry — a heading,
    table row or list item naming them (or an alias) in backticks — in
    ``docs/<doc>``."""
    rows = [
        line for line in (REPO / "docs" / doc).read_text().splitlines()
        if line.startswith(("#", "|", "- "))
    ]
    return [
        name for name, entry in registry.items()
        if not any(
            f"`{spelling}`" in row
            for spelling in (name, *getattr(entry, "aliases", ()))
            for row in rows
        )
    ]


def test_every_placement_family_has_a_catalogue_row():
    from repro.core.scheme import PLACEMENT_REGISTRY

    assert _uncatalogued("placements.md", PLACEMENT_REGISTRY) == []


def test_every_environment_family_has_a_catalogue_row():
    from repro.env import ENV_REGISTRY

    missing = {
        layer: _uncatalogued("environments.md", table)
        for layer, table in ENV_REGISTRY.items()
    }
    assert not any(missing.values()), missing


def _public_api_uses() -> set:
    """Every name the README, ``docs/``, ``examples/``, the ``repro``
    docstring tour and ``benchmarks/e2e/`` take from the top-level
    package: ``from repro import …`` lists and ``repro.<name>``
    attributes that are not submodules."""
    import repro

    submodules = {m.name for m in pkgutil.iter_modules(repro.__path__)}
    texts = [(REPO / "README.md").read_text(), repro.__doc__]
    texts += [p.read_text() for p in sorted((REPO / "docs").glob("*.md"))]
    texts += [p.read_text() for p in sorted((REPO / "examples").rglob("*.py"))]
    texts += [
        p.read_text() for p in sorted((REPO / "benchmarks" / "e2e").glob("*.py"))
    ]
    names = set()
    for text in texts:
        for match in re.finditer(r"from repro import (\([^)]*\)|[^\n]*)", text):
            body = re.sub(r"#[^\n]*", "", match.group(1).strip("()"))
            names.update(
                part.split(" as ")[0].strip()
                for part in body.split(",") if part.strip()
            )
        names.update(
            name for name in re.findall(r"(?<![\w.])repro\.(\w+)", text)
            if name not in submodules
        )
    return names


def test_public_api_is_what_the_docs_import():
    """``repro.__all__`` is exactly what the docs, examples and the
    benchmark use, plus ``__version__``: a name nothing outside the tests
    imports lives in its subpackage only."""
    import repro

    assert set(repro.__all__) == _public_api_uses() | {"__version__"}

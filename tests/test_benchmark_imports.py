"""The end-to-end benchmark's hold on the library, checked without running it.

``benchmarks/e2e`` imports names from ``repro``, reaches others as
dotted ``repro.…`` attributes, and patches ``(Class, "method")`` pairs
with its span recorder.  Its own tests are not part of this suite, so
a rename in ``repro`` would break the benchmark unseen; these tests
read its files (never edit or run them) and resolve every such name.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
FILES = sorted(BENCH.glob("*.py"))
#: the span recorder's patching methods: ``(owner, "attr", ...)``.
PATCHERS = ("wrap", "wrap_class_tree", "observe", "wrap_generator")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _dotted(node):
    """``repro.a.b`` for an attribute chain rooted at the name ``repro``,
    else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "repro":
        return ".".join(["repro", *reversed(parts)])
    return None


def _resolve(dotted):
    """The object ``dotted`` names, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _imported_names(tree):
    """``local name → dotted path`` for every ``from repro… import``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).split(".")[0] == "repro":
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _defined_in_tree(cls, attr):
    """Whether ``cls`` or a loaded subclass of it defines ``attr``."""
    return attr in cls.__dict__ or any(
        _defined_in_tree(sub, attr) for sub in cls.__subclasses__()
    )


def _ids(paths):
    return [path.name for path in paths]


def test_the_benchmark_files_are_found():
    assert {"layers.py", "workloads.py", "harness.py"} <= {
        path.name for path in FILES
    }


@pytest.mark.parametrize("path", FILES, ids=_ids(FILES))
def test_every_repro_import_resolves(path):
    tree = _tree(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
    for dotted in _imported_names(tree).values():
        _resolve(dotted)


@pytest.mark.parametrize("path", FILES, ids=_ids(FILES))
def test_every_dotted_repro_attribute_resolves(path):
    tree = _tree(path)
    # Only the outermost node of each chain: its prefixes resolve on
    # the way to it.
    inner = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            dotted = _dotted(node)
            if dotted is not None:
                _resolve(dotted)


def test_every_patched_method_exists():
    """Each ``(owner, "method")`` pair ``layers.py`` hands the span
    recorder names an attribute the owner has (for a class tree: that
    the class or a subclass defines)."""
    import repro  # noqa: F401  (loads the subclasses the trees reach)

    tree = _tree(BENCH / "layers.py")
    imported = _imported_names(tree)
    checked = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PATCHERS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            continue
        owner = node.args[0]
        if isinstance(owner, ast.Name) and owner.id in imported:
            dotted = imported[owner.id]
        else:
            dotted = _dotted(owner)
        if dotted is None:  # a loop variable: a module found at run time
            continue
        attr = node.args[1].value
        owner = _resolve(dotted)
        if node.func.attr == "wrap_class_tree":
            # Wrapped wherever the class or a subclass defines it.
            assert _defined_in_tree(owner, attr), f"{dotted}.{attr}"
        else:
            assert hasattr(owner, attr), f"{dotted}.{attr}"
        checked.append((dotted, attr))
    # The pairs are there to check: a parse that finds none is broken.
    assert len(checked) >= 20
    assert ("repro.PlacementScheme", "conflict_graph") in checked

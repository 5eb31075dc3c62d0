"""Documentation quality gate: every public item carries a docstring.

Walks the whole :mod:`repro` package: every module, every public class,
every public function/method defined in the package must have a
non-trivial docstring.  Keeps deliverable (e) honest as the code grows.
"""

import importlib
import inspect
import pkgutil

import repro

MIN_DOC_LEN = 10


def _repro_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def _is_local(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _doc_ok(obj) -> bool:
    doc = inspect.getdoc(obj)
    return doc is not None and len(doc.strip()) >= MIN_DOC_LEN


def test_every_module_has_docstring():
    missing = [
        m.__name__ for m in _repro_modules() if not _doc_ok(m)
    ]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_all_name_is_bound():
    """A module's ``__all__`` lists no name it no longer binds (a lazy
    module ``__getattr__`` binding counts)."""
    stale = [
        f"{module.__name__}.{name}"
        for module in _repro_modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not stale, f"__all__ names that are not bound: {stale}"


def test_every_public_class_documented():
    missing = []
    for module in _repro_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isclass(obj):
                continue
            if not _is_local(obj, module):
                continue
            if not _doc_ok(obj):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"classes without docstrings: {missing}"


def test_every_public_function_documented():
    missing = []
    for module in _repro_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if not _is_local(obj, module):
                continue
            if not _doc_ok(obj):
                missing.append(f"{module.__name__}.{name}")
    assert not missing, f"functions without docstrings: {missing}"


def test_public_methods_documented():
    """Public methods of public classes — inherited docstrings count
    (``inspect.getdoc`` walks the MRO), dataclass autogen is exempt."""
    exempt = {"__init__"}
    missing = []
    for module in _repro_modules():
        for cls_name, cls in vars(module).items():
            if cls_name.startswith("_") or not inspect.isclass(cls):
                continue
            if not _is_local(cls, module):
                continue
            for meth_name, meth in vars(cls).items():
                if meth_name.startswith("_") or meth_name in exempt:
                    continue
                if not inspect.isfunction(meth):
                    continue
                if not _doc_ok(getattr(cls, meth_name)):
                    missing.append(
                        f"{module.__name__}.{cls_name}.{meth_name}"
                    )
    assert not missing, f"methods without docstrings: {missing}"

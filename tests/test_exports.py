import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import gplod

MODULES = ["gplod"] + sorted(m.name for m in pkgutil.iter_modules(gplod.__path__, "gplod."))
ROOT = Path(__file__).resolve().parent.parent
# exported for the acceptance suite alone (criteria 4 and 5)
ACCEPTANCE_ONLY = {"plod_project", "load_triangle_constant", "same_mesh_hierarchy"}


def _tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_trace_targets_resolve():
    # every function the benchmark's traced runs wrap still exists
    tracer = _tracer()
    missing = []
    for module, attr_path, _ in tracer.TARGETS:
        obj = importlib.import_module(f"gplod.{module}")
        for part in attr_path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr_path}")
    assert missing == []


def _references(statement):
    """Names a statement loads or imports."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_exports_are_used_by_the_library():
    # library code that only tests call is dead weight: every exported name
    # is used in src/gplod outside its own definition (the __all__ entry is a
    # string, not a reference), or wrapped by the benchmark's tracer
    referenced = set()
    for path in (ROOT / "src" / "gplod").glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            own = getattr(statement, "name", None)
            referenced |= _references(statement) - {own}
    traced = {(f"gplod.{m}", attr.split(".")[0]) for m, attr, _ in _tracer().TARGETS}
    unused = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(name), "__all__", ())
        if attr not in referenced | ACCEPTANCE_ONLY and (name, attr) not in traced
    ]
    assert unused == []


# methods that a framework calls by name, not the library
FRAMEWORK_OVERRIDES = {"_ArgumentParser.error"}


def test_public_methods_are_used_by_the_library():
    # every public method or property of a library class is referenced by
    # attribute name in src/gplod outside its own body, or wrapped by the
    # benchmark's tracer
    referenced = {}
    methods = []
    for path in (ROOT / "src" / "gplod").glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced[node.attr] = referenced.get(node.attr, 0) + 1
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (cls.name, fn)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                ]
    traced = {attr for _, attr, _ in _tracer().TARGETS if "." in attr}
    unused = []
    for owner, fn in methods:
        name = f"{owner}.{fn.name}"
        own = sum(
            isinstance(node, ast.Attribute) and node.attr == fn.name for node in ast.walk(fn)
        )
        if referenced.get(fn.name, 0) == own and name not in traced | FRAMEWORK_OVERRIDES:
            unused.append(name)
    assert unused == []

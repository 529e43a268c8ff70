import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import gplod

MODULES = ["gplod"] + sorted(m.name for m in pkgutil.iter_modules(gplod.__path__, "gplod."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_trace_targets_resolve():
    # every function the benchmark's traced runs wrap still exists
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr_path, _ in tracer.TARGETS:
        obj = importlib.import_module(f"gplod.{module}")
        for part in attr_path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr_path}")
    assert missing == []

import importlib
import pkgutil

import pytest

import gplod

MODULES = ["gplod"] + sorted(m.name for m in pkgutil.iter_modules(gplod.__path__, "gplod."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

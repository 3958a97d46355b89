import importlib

import pytest


@pytest.mark.parametrize("module", ["oraclelab.simcore", "oraclelab.rfs"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    assert len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(package.__all__) <= set(namespace)

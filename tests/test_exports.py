import importlib

import pytest

MODULES = [
    "tensors",
    "formats",
    "formats.hosvd",
    "formats.tt",
    "formats.ht",
    "measurements",
    "solvers",
    "analysis",
    "experiments",
    "cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a stale __all__ entry breaks `from tiht.<module> import *`
    module = importlib.import_module(f"tiht.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

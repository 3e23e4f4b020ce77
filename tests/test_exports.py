import importlib
import types
from pathlib import Path

import pytest

import tiht

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

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a stale __all__ entry breaks `from tiht.<module> import *`
    module = importlib.import_module(f"tiht.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_truncation_kernels_are_reached_through_truncate():
    # the kernels take clamped ranks; formats.truncate is the one checked entry
    kernels = {"hosvd_truncate", "tt_truncate", "ht_truncate"}
    for name in ("formats", "formats.hosvd", "formats.tt", "formats.ht"):
        assert kernels.isdisjoint(importlib.import_module(f"tiht.{name}").__all__), name


def test_top_level_binds_exactly_its_all():
    # the quick start's names; everything else is reached through its submodule
    public = {n for n, v in vars(tiht).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(tiht.__all__) == sorted(public) == ["SolverConfig", "draw", "generate_test_tensor", "tiht_run"]


def test_readme_quick_start_runs_as_written(capsys):
    # a README that drifts from the API fails here
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.split()[0] == "True"  # result.success

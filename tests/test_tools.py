"""The committed tools run against the working tree's API."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import tiht

TRACE_IDENTITY = Path(__file__).resolve().parents[1] / "tools" / "trace_identity.py"


def _tool():
    spec = importlib.util.spec_from_file_location("trace_identity", TRACE_IDENTITY)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_trace_identity_dumps_the_ht_and_draw_arrays():
    # an API change that breaks the identity tool fails here, not at the next comparison
    tool = _tool()
    arrays = tool.ht_arrays(tiht) | tool.draw_arrays(tiht)
    # 204 HT draws, reconstructions and node frames; 36 HOSVD and TT draws and
    # 96 HOSVD and TT reconstructions and frames
    assert len(arrays) == 336
    assert all(np.all(np.isfinite(a)) for a in arrays.values())


def test_trace_identity_dumps_a_run_for_every_exit_to_diverged():
    # the sweep cells and recover instances end only converged or max_iters, so
    # without these runs the CI gate would not see the diverging exits
    arrays = _tool().diverging_arrays(tiht)
    assert len(arrays) == 28  # four runs, seven arrays each
    assert [str(a) for n, a in arrays.items() if n.endswith("/stop_reason")] == ["diverged"] * 4


def test_trace_identity_compare_exit_status_gates_on_every_array(tmp_path):
    # the CI trace-identity job passes or fails on this exit status alone
    def compare(a, b):
        paths = []
        for name, arrays in (("a.npz", a), ("b.npz", b)):
            np.savez(tmp_path / name, **arrays)
            paths.append(str(tmp_path / name))
        return subprocess.run(
            [sys.executable, str(TRACE_IDENTITY), "compare", *paths], capture_output=True, text=True
        )

    arrays = {"run/mus": np.array([1.0, 0.5, np.nan]), "run/stop_reason": np.array("converged")}
    same = compare(arrays, arrays)
    assert same.returncode == 0, same.stdout
    assert "2/2 arrays identical" in same.stdout

    changed = compare(arrays, arrays | {"run/mus": np.array([1.0, 0.25, np.nan])})
    assert changed.returncode == 1
    assert changed.stdout.splitlines()[0] == "run/mus: differs or is missing on one side"
    assert "1/2 arrays identical" in changed.stdout

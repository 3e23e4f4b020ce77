"""The committed tools run against the working tree's API."""

import importlib.util
from pathlib import Path

import numpy as np

import tiht

TRACE_IDENTITY = Path(__file__).resolve().parents[1] / "tools" / "trace_identity.py"


def test_trace_identity_dumps_the_ht_and_draw_arrays():
    # an API change that breaks the identity tool fails here, not at the next comparison
    spec = importlib.util.spec_from_file_location("trace_identity", TRACE_IDENTITY)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    arrays = tool.ht_arrays(tiht) | tool.draw_arrays(tiht)
    # 204 HT draws, reconstructions and node frames; 36 HOSVD and TT draws
    assert len(arrays) == 240
    assert all(np.all(np.isfinite(a)) for a in arrays.values())

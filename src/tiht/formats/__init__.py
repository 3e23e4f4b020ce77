"""Low-rank tensor formats (HOSVD, TT, HT): truncation operators and ranks.

A format is a family of matricizations: its rank is the tuple of ranks of
the unfoldings that put single modes (HOSVD), mode prefixes (TT) or the
nodes of a dimension tree (HT) in the rows.  :mod:`.family` holds those mode
sets with the rank clamp and the one rank probe all three share.  Each
format exposes a ``*_truncate`` operator computing a quasi-best rank-r
approximation by successive SVDs over its family and a decomposition record
that reconstructs back to a dense tensor.
"""

from __future__ import annotations

import numpy as np

from .family import (
    FORMATS,
    DegenerateTensorError,
    DimensionTree,
    clamp_ranks,
    default_tree,
    mode_sets,
    probe_ranks,
)
from .hosvd import HosvdDecomposition, hosvd_truncate
from .ht import HTDecomposition, ht_truncate
from .tt import TTDecomposition, tt_truncate

__all__ = [
    "FORMATS",
    "mode_sets",
    "clamp_ranks",
    "probe_ranks",
    "default_tree",
    "DegenerateTensorError",
    "HosvdDecomposition",
    "TTDecomposition",
    "DimensionTree",
    "HTDecomposition",
    "hosvd_truncate",
    "tt_truncate",
    "ht_truncate",
    "truncate",
]


def truncate(X, fmt: str, ranks, tree: DimensionTree | None = None):
    """Dispatch to the format's rank-r truncation operator H_r."""
    if fmt == "hosvd":
        return hosvd_truncate(X, ranks)
    if fmt == "tt":
        return tt_truncate(X, ranks)
    if fmt == "ht":
        return ht_truncate(X, default_tree(tree, np.ndim(X)), ranks)
    raise ValueError(f"unknown tensor format {fmt!r}")

"""Low-rank tensor formats (HOSVD, TT, HT): truncation operators, ranks, draws.

A format is a family of matricizations: its rank is the tuple of ranks of
the unfoldings that put single modes (HOSVD), mode prefixes (TT) or the
nodes of a dimension tree (HT) in the rows.  :mod:`.family` holds those mode
sets with the rank clamp and the draw-rank rule all three share.  Each
format exposes a ``*_truncate`` operator computing a quasi-best rank-r
approximation by successive SVDs over its family, a seeded ``*_random`` draw
and a decomposition record that reconstructs back to a dense tensor.
"""

from __future__ import annotations

import numpy as np

from .family import (
    FORMATS,
    DimensionTree,
    clamp_ranks,
    default_tree,
    draw_ranks,
    mode_sets,
)
from .hosvd import HosvdDecomposition, hosvd_random, hosvd_truncate
from .ht import HTDecomposition, ht_random, ht_truncate
from .tt import TTDecomposition, tt_random, tt_truncate

__all__ = [
    "FORMATS",
    "mode_sets",
    "clamp_ranks",
    "draw_ranks",
    "default_tree",
    "HosvdDecomposition",
    "TTDecomposition",
    "DimensionTree",
    "HTDecomposition",
    "hosvd_truncate",
    "tt_truncate",
    "ht_truncate",
    "truncate",
    "random_rank_r_tensor",
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


def random_rank_r_tensor(shape, fmt: str, ranks, seed, tree: DimensionTree | None = None) -> np.ndarray:
    """Dispatch to the format's random draw, seeded by anything ``np.random.default_rng`` takes."""
    if fmt == "hosvd":
        return hosvd_random(shape, ranks, seed)
    if fmt == "tt":
        return tt_random(shape, ranks, seed)
    if fmt == "ht":
        return ht_random(shape, ranks, seed, tree)
    raise ValueError(f"unknown tensor format {fmt!r}")

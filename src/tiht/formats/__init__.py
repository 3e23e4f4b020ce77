"""Low-rank tensor formats (HOSVD, TT, HT): truncation operators, ranks, draws.

A format is a family of matricizations: its rank is the tuple of ranks of
the unfoldings that put single modes (HOSVD), mode prefixes (TT) or the
nodes of a dimension tree (HT) in the rows.  :mod:`.family` holds those mode
sets with the rank clamp and the draw-rank rule all three share.  Each
format's module holds the kernel of its truncation H_r, a quasi-best rank-r
approximation by successive SVDs over its family, a seeded ``*_random`` draw
and a decomposition record that reconstructs back to a dense tensor.
:func:`truncate` is the one entry to the kernels: they take clamped ranks.
"""

from __future__ import annotations

import numpy as np

from ..tensors import as_tensor
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
    "truncate",
    "random_rank_r_tensor",
]


def truncate(X, fmt: str, ranks, tree: DimensionTree | None = None):
    """The format's rank-r truncation operator H_r over ``tree`` (balanced by default, HT only).

    The one checked entry: it clamps ``ranks`` once and hands the clamped
    ranks to the format's kernel.
    """
    X = as_tensor(X)
    if fmt == "ht":
        tree = default_tree(tree, X.ndim)
    _, r = clamp_ranks(fmt, ranks, X.shape, tree)  # rejects an unknown format
    if fmt == "hosvd":
        return hosvd_truncate(X, r)
    if fmt == "tt":
        return tt_truncate(X, r)
    return ht_truncate(X, tree, r)


def random_rank_r_tensor(shape, fmt: str, ranks, seed, tree: DimensionTree | None = None) -> np.ndarray:
    """Dispatch to the format's random draw, seeded by anything ``np.random.default_rng`` takes."""
    if fmt == "hosvd":
        return hosvd_random(shape, ranks, seed)
    if fmt == "tt":
        return tt_random(shape, ranks, seed)
    if fmt == "ht":
        return ht_random(shape, ranks, seed, tree)
    raise ValueError(f"unknown tensor format {fmt!r}")

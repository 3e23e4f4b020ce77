"""Low-rank tensor formats (HOSVD, TT, HT): truncation operators, ranks, draws.

A format is a family of matricizations: its rank is the tuple of ranks of
the unfoldings that put single modes (HOSVD), mode prefixes (TT) or the
nodes of a dimension tree (HT) in the rows.  :mod:`.family` holds those mode
sets with the rank check, the rank clamp and the draw-rank rule all three share.  Each
format's module holds the kernel of its truncation H_r, a quasi-best rank-r
approximation by successive SVDs over its family, a seeded ``*_random`` draw
and a decomposition record that reconstructs back to a dense tensor.
:func:`truncate` is the one entry to the kernels: they take clamped ranks.
"""

from __future__ import annotations

import functools

import numpy as np

from ..tensors import as_tensor, check_choice
from .family import (
    FORMATS,
    DimensionTree,
    check_rank,
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
    "check_rank",
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

    The one checked entry: it checks ``ranks`` on every call, clamps the checked rank once
    per (format, rank, shape, tree) and hands the clamped ranks to the format's kernel.
    """
    X = as_tensor(X)
    tree, r = _resolve(fmt, check_rank(fmt, ranks), X.shape, tree)
    if fmt == "hosvd":
        return hosvd_truncate(X, r)
    if fmt == "tt":
        return tt_truncate(X, r)
    return ht_truncate(X, tree, r)


@functools.lru_cache(maxsize=64)
def _resolve(fmt: str, ranks, shape: tuple[int, ...], tree: DimensionTree | None):
    """The tree (HT only) and clamped ranks of a truncation, a pure function of its arguments."""
    if fmt == "ht":
        tree = default_tree(tree, len(shape))
    return tree, clamp_ranks(fmt, ranks, shape, tree)[1]


def random_rank_r_tensor(shape, fmt: str, ranks, seed, tree: DimensionTree | None = None) -> np.ndarray:
    """Dispatch to the format's random draw, seeded by anything ``np.random.default_rng`` takes."""
    if check_choice("format", fmt, FORMATS) == "hosvd":
        return hosvd_random(shape, ranks, seed)
    if fmt == "tt":
        return tt_random(shape, ranks, seed)
    return ht_random(shape, ranks, seed, tree)

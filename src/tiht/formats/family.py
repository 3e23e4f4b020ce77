"""Matricization families: the unfoldings whose ranks make up a format's rank.

Each unfolding is named by its row modes: single modes for HOSVD, mode
prefixes for TT, the non-root nodes of a dimension tree for HT.  A dimension
tree is a binary tree over the modes whose left son precedes its right son,
so every node is a run of consecutive modes; a node is that tuple of modes,
and ``(0, 1)`` is both the node and the row modes of its matricization.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensors import check_shape

FORMATS = ("hosvd", "tt", "ht")


class DimensionTree:
    """Binary tree over modes 0..d-1 given as nested (left, right) pairs of modes.

    ``children`` maps every interior node to its (left, right) sons, and
    ``sets`` lists the non-root nodes deepest level first, then by modes:
    sons before fathers, the order every HT walk follows.
    """

    def __init__(self, nested):
        self.nested = nested
        self.children: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        level: dict[tuple[int, ...], int] = {}

        def parse(sub, depth):
            if isinstance(sub, int):
                if sub < 0:
                    raise ValueError("mode indices must be nonnegative")
                node = (sub,)
            else:
                try:
                    left, right = sub
                except (TypeError, ValueError):
                    raise ValueError(f"malformed tree node {sub!r}: expected int or pair")
                s1, s2 = parse(left, depth + 1), parse(right, depth + 1)
                if s1[-1] + 1 != s2[0]:
                    raise ValueError(f"sons {s1} and {s2} must partition a contiguous interval, left first")
                node = s1 + s2
                self.children[node] = (s1, s2)
            level[node] = depth
            return node

        self.root = parse(nested, 0)
        if self.root[0] != 0:
            raise ValueError("tree must cover modes starting at 0")
        self.order = len(self.root)
        del level[self.root]
        self.sets = sorted(level, key=lambda t: (-level[t], t))

    @classmethod
    def balanced(cls, order: int) -> "DimensionTree":
        """Default tree: split the mode interval in half recursively (left-heavy)."""
        if order < 2:
            raise ValueError("a dimension tree needs order >= 2")

        def split(lo, hi):
            if hi - lo == 1:
                return lo
            mid = lo + (hi - lo + 1) // 2
            return (split(lo, mid), split(mid, hi))

        return cls(split(0, order))

    @classmethod
    def degenerate(cls, order: int) -> "DimensionTree":
        """The caterpillar (TT-style) tree {1}, {2,...,d}, {2}, {3,...,d}, ..."""
        if order < 2:
            raise ValueError("a dimension tree needs order >= 2")

        def chain(lo):
            if lo == order - 2:
                return (lo, lo + 1)
            return (lo, chain(lo + 1))

        return cls(chain(0))

    def __eq__(self, other):
        return isinstance(other, DimensionTree) and self.children == other.children

    def __repr__(self):
        return f"DimensionTree({self.nested!r})"


def default_tree(tree: DimensionTree | None, order: int) -> DimensionTree:
    """``tree`` itself, or the balanced tree over ``order`` modes when it is None."""
    return DimensionTree.balanced(order) if tree is None else tree


def mode_sets(fmt: str, order: int, tree: DimensionTree | None = None) -> list[tuple[int, ...]]:
    """Row modes of the matricizations that define the format rank, in truncation order.

    HOSVD: ``(k,)`` for every mode.  TT: the prefixes ``(0,)``, ``(0, 1)``,
    ..., ``(0, ..., d-2)``.  HT: the non-root nodes of ``tree`` (balanced by
    default), deepest level first and sons before fathers.
    """
    if fmt == "hosvd":
        return [(k,) for k in range(order)]
    if fmt == "tt":
        if order < 2:
            raise ValueError("TT format needs order >= 2")
        return [tuple(range(i)) for i in range(1, order)]
    if fmt == "ht":
        tree = default_tree(tree, order)
        if tree.order != order:
            raise ValueError(f"tree of order {tree.order} does not match tensor order {order}")
        return list(tree.sets)
    raise ValueError(f"unknown tensor format {fmt!r}")


def clamp_ranks(fmt: str, ranks, shape, tree: DimensionTree | None = None):
    """The format's mode sets and the requested ranks, validated and clamped.

    HOSVD and TT ranks are sequences with one rank per mode set; an HT rank
    is one int for every node.  Each rank must be >= 1 and is clamped to
    min(r, n_S, N / n_S), the row and column dimensions of its matricization;
    a TT rank is also clamped, left to right, to r_{k-1} n_k, the most TT-SVD
    can attain after the previous prefix.  A uniform HT rank needs no such
    cap: a node's sons and the nodes beside it always span at least its
    clamped rank, so these are the ranks ``ht_truncate`` attains.  Returns
    ``(sets, ranks)``.
    """
    dims = check_shape(shape)
    sets = mode_sets(fmt, len(dims), tree)
    if fmt == "ht":
        if not isinstance(ranks, (int, np.integer)):
            raise ValueError(f"an HT rank is one int for every tree node, got {ranks!r}")
        ranks = [ranks] * len(sets)
    elif isinstance(ranks, (int, np.integer)):
        raise ValueError(f"a {fmt} rank is a sequence of one int per mode set, got {ranks!r}")
    r = tuple(int(v) for v in ranks)
    if len(r) != len(sets):
        raise ValueError(f"{fmt} rank {r} must have length {len(sets)} for order {len(dims)}")
    if any(v < 1 for v in r):
        raise ValueError(f"ranks must be >= 1, got {r}")
    N = math.prod(dims)
    rows = [math.prod(dims[k] for k in S) for S in sets]
    r = [min(v, n, N // n) for v, n in zip(r, rows)]
    if fmt == "tt":
        for k in range(1, len(r)):
            r[k] = min(r[k], r[k - 1] * dims[k])
    return sets, tuple(r)


def draw_ranks(fmt: str, ranks, shape, tree: DimensionTree | None = None):
    """``clamp_ranks`` for a random draw, which rejects a rank no draw reaches.

    The HOSVD draw is made at exactly ``ranks``, so the clamp must keep every
    rank, and each r_k must be at most prod_{j != k} r_j, the column count of
    the core's mode-k unfolding.  The TT draw is made at the clamped ranks,
    and each must be at most n_{k+1} r_{k+1} (with r_d = 1), the column count
    of the next core's first flattening.  A uniform HT draw reaches the clamp.
    """
    sets, r = clamp_ranks(fmt, ranks, shape, tree)
    if fmt == "hosvd":
        total = math.prod(r)
        if r != tuple(ranks) or any(v > total // v for v in r):
            raise ValueError(
                f"a HOSVD draw rank needs 1 <= r_k <= min(n_k, N / n_k, prod_(j != k) r_j), "
                f"got {ranks} for shape {shape}"
            )
    if fmt == "tt" and any(v > n * w for v, n, w in zip(r, shape[1:], (*r[1:], 1))):
        raise ValueError(f"a TT draw rank needs r_k <= n_(k+1) r_(k+1) with r_d = 1, got {ranks} (clamped {r}) for shape {shape}")
    return sets, r


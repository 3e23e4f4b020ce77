"""Matricization families: the unfoldings whose ranks make up a format's rank.

Each unfolding is named by its row modes: single modes for HOSVD, mode
prefixes for TT, the non-root nodes of a dimension tree for HT.  A dimension
tree is a binary tree over the modes whose left son precedes its right son,
so every node is a contiguous interval of modes, written as the half-open
0-based pair ``(lo, hi)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensors import as_tensor, check_shape, matricize

FORMATS = ("hosvd", "tt", "ht")

Node = tuple[int, int]


class DegenerateTensorError(ValueError):
    """Raised when an operation needs a nonzero tensor and got the zero tensor."""


class DimensionTree:
    """Binary tree over modes 0..d-1; nodes are contiguous intervals (lo, hi)."""

    def __init__(self, nested):
        root, children = _parse_nested(nested)
        if root[0] != 0:
            raise ValueError("tree must cover modes starting at 0")
        self.order: int = root[1]
        self.root: Node = root
        self._children: dict[Node, tuple[Node, Node]] = children
        self._parent: dict[Node, Node] = {}
        self._level: dict[Node, int] = {self.root: 0}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in self._children:
                for son in self._children[node]:
                    self._parent[son] = node
                    self._level[son] = self._level[node] + 1
                    stack.append(son)

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

    def to_nested(self):
        """Nested (left, right) tuples with leaves as mode integers."""

        def walk(node):
            if self.is_leaf(node):
                return node[0]
            a, b = self._children[node]
            return (walk(a), walk(b))

        return walk(self.root)

    def is_leaf(self, node: Node) -> bool:
        return node[1] - node[0] == 1

    def children(self, node: Node) -> tuple[Node, Node]:
        return self._children[node]

    def parent(self, node: Node) -> Node:
        return self._parent[node]

    def modes(self, node: Node) -> tuple[int, ...]:
        return tuple(range(node[0], node[1]))

    def leaves(self) -> list[Node]:
        return [(i, i + 1) for i in range(self.order)]

    def interior(self) -> list[Node]:
        return sorted(self._children, key=lambda n: (self._level[n], n))

    def interior_bottom_up(self, include_root: bool = False) -> list[Node]:
        """Interior nodes ordered deepest level first; root last when included."""
        nodes = sorted(
            self._children, key=lambda n: (-self._level[n], n)
        )
        if not include_root:
            nodes = [n for n in nodes if n != self.root]
        return nodes

    def nodes(self) -> list[Node]:
        return sorted(self._level, key=lambda n: (self._level[n], n))

    def level(self, node: Node) -> int:
        return self._level[node]

    def __eq__(self, other):
        return isinstance(other, DimensionTree) and self.to_nested() == other.to_nested()

    def __repr__(self):
        return f"DimensionTree({self.to_nested()!r})"


def _parse_nested(nested):
    if isinstance(nested, int):
        if nested < 0:
            raise ValueError("mode indices must be nonnegative")
        return (nested, nested + 1), {}
    try:
        left, right = nested
    except (TypeError, ValueError):
        raise ValueError(f"malformed tree node {nested!r}: expected int or pair")
    lspan, lch = _parse_nested(left)
    rspan, rch = _parse_nested(right)
    if lspan[1] != rspan[0]:
        raise ValueError(
            f"sons {lspan} and {rspan} must partition a contiguous interval, left first"
        )
    children = {**lch, **rch, (lspan[0], rspan[1]): (lspan, rspan)}
    return (lspan[0], rspan[1]), children


def default_tree(tree: DimensionTree | None, order: int) -> DimensionTree:
    """``tree`` itself, or the balanced tree over ``order`` modes when it is None."""
    return DimensionTree.balanced(order) if tree is None else tree


def node_of(modes: tuple[int, ...]) -> Node:
    """The dimension-tree node (lo, hi) of a contiguous mode set."""
    return (modes[0], modes[-1] + 1)


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
        # the root has the only level 0, so it sorts last and is dropped
        nodes = sorted(tree.nodes(), key=lambda n: (-tree.level(n), n))[:-1]
        return [tree.modes(n) for n in nodes]
    raise ValueError(f"unknown tensor format {fmt!r}")


def clamp_ranks(fmt: str, ranks, shape, tree: DimensionTree | None = None):
    """The format's mode sets and the requested ranks, validated and clamped.

    HOSVD and TT ranks are sequences with one rank per mode set; HT ranks are
    a single int for every node or a mapping from tree node (lo, hi) to rank.
    Each rank must be >= 1 and is clamped to min(r, n_S, N / n_S), the row
    and column dimensions of its matricization.  Returns ``(sets, ranks)``.
    """
    dims = check_shape(shape)
    sets = mode_sets(fmt, len(dims), tree)
    if fmt == "ht":
        if isinstance(ranks, dict):
            missing = [node_of(S) for S in sets if node_of(S) not in ranks]
            if missing:
                raise ValueError(f"no rank given for tree node {missing[0]}")
            ranks = [ranks[node_of(S)] for S in sets]
        else:
            ranks = [ranks] * len(sets)
    r = tuple(int(v) for v in ranks)
    if len(r) != len(sets):
        raise ValueError(f"{fmt} rank {r} must have length {len(sets)} for order {len(dims)}")
    if any(v < 1 for v in r):
        raise ValueError(f"ranks must be >= 1, got {r}")
    N = math.prod(dims)
    rows = [math.prod(dims[k] for k in S) for S in sets]
    return sets, tuple(min(v, n, N // n) for v, n in zip(r, rows))


def probe_ranks(X, sets) -> tuple[int, ...]:
    """Numerical rank of the matricization of X for every mode set.

    Raises :class:`DegenerateTensorError` for the zero tensor.
    """
    X = as_tensor(X)
    if not np.any(X):
        raise DegenerateTensorError("rank of the zero tensor is undefined")
    ranks = []
    for S in sets:
        M = matricize(X, S)
        s = np.linalg.svd(M, compute_uv=False)
        # singular values above max(m, n) * eps * sigma_max; sigma_max > 0
        # because X is nonzero, so every rank is at least 1
        tol = max(M.shape) * np.finfo(np.float64).eps * s[0]
        ranks.append(int(np.count_nonzero(s > tol)))
    return tuple(ranks)

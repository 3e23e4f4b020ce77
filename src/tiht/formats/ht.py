"""Hierarchical Tucker format: leaves-to-root truncation over a dimension tree
and reconstruction.

Tree nodes are the half-open mode intervals ``(lo, hi)`` of
:class:`~tiht.formats.family.DimensionTree`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import top_left_bases
from ..tensors import as_tensor, matricize, tensorize, unvec
from .family import DimensionTree, Node, clamp_ranks, mode_sets, node_of, probe_ranks
from .hosvd import hosvd_truncate

__all__ = ["HTDecomposition", "ht_truncate", "ht_rank"]


@dataclass(frozen=True)
class HTDecomposition:
    """Transfer tensors at interior nodes, orthonormal frames at the leaves.

    ``transfers[t]`` has shape (r_t, r_t1, r_t2); the root has r_root = 1.
    ``frames[i]`` has shape (n_i, r_i).
    """

    tree: DimensionTree
    transfers: dict[Node, np.ndarray]
    frames: dict[int, np.ndarray]
    shape: tuple[int, ...]

    def _node_frame(self, node: Node, known: dict[Node, np.ndarray]) -> np.ndarray:
        """``kron(U_t2, U_t1) @ matricize(B_t, (1, 2))``; frames are computed once into ``known``."""
        if node not in known:
            if self.tree.is_leaf(node):
                known[node] = self.frames[node[0]]
            else:
                s1, s2 = self.tree.children(node)
                U1 = self._node_frame(s1, known)
                U2 = self._node_frame(s2, known)
                Bmat = matricize(self.transfers[node], (1, 2))  # (r1 * r2, r_t), left-son index fastest
                known[node] = np.kron(U2, U1) @ Bmat
        return known[node]

    def reconstruct(self) -> np.ndarray:
        v = self._node_frame(self.tree.root, {})
        return unvec(v[:, 0], self.shape)

    def blocks(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """``(modes of t, U_t)`` for every non-root node t, in ``mode_sets`` order.

        The node frames have orthonormal columns whenever the leaf frames and
        the transfer tensors' {2,3}-flattenings do, as after :func:`ht_truncate`.
        """
        known: dict[Node, np.ndarray] = {}
        sets = mode_sets("ht", len(self.shape), self.tree)
        return [(S, self._node_frame(node_of(S), known)) for S in sets]


def ht_truncate(X, tree: DimensionTree, ranks) -> HTDecomposition:
    """Leaves-to-root truncation via successive SVDs of the shrinking core.

    Leaf frames come from the mode-k unfoldings of X; every interior node then
    truncates the current reduced core's matricization that groups its two
    sons, in ``mode_sets`` order, sons before fathers.  The error is within
    (2 + sqrt(2)) * sqrt(d) of the best rank-r approximation error.
    """
    X = as_tensor(X)
    dims = X.shape
    sets, clamped = clamp_ranks("ht", ranks, dims, tree)
    r = dict(zip(map(node_of, sets), clamped))

    leaves = hosvd_truncate(X, [r[k, k + 1] for k in range(X.ndim)])
    frames = dict(enumerate(leaves.factors))
    C = leaves.core

    active: list[Node] = [(i, i + 1) for i in range(X.ndim)]
    transfers: dict[Node, np.ndarray] = {}
    for node in (node_of(S) for S in sets if len(S) > 1):
        s1, s2 = tree.children(node)
        p = active.index(s1)
        r1, r2 = C.shape[p], C.shape[p + 1]
        M = matricize(C, (p, p + 1))
        W = top_left_bases([M], [r[node]])[0]
        rt = W.shape[1]
        transfers[node] = W.reshape(r1, r2, rt, order="F").transpose(2, 0, 1)
        new_shape = C.shape[:p] + (rt,) + C.shape[p + 2 :]
        C = tensorize(W.conj().T @ M, (p,), new_shape)
        active[p : p + 2] = [node]

    s1, s2 = tree.children(tree.root)
    if active != [s1, s2]:
        raise RuntimeError("tree traversal did not reduce to the root's sons")
    transfers[tree.root] = C[None, :, :]
    return HTDecomposition(tree=tree, transfers=transfers, frames=frames, shape=dims)


def ht_rank(X, tree: DimensionTree) -> dict[Node, int]:
    """Numerical rank of the node matricization, for every tree node."""
    sets = mode_sets("ht", np.ndim(X), tree)
    return {tree.root: 1, **{node_of(S): v for S, v in zip(sets, probe_ranks(X, sets))}}

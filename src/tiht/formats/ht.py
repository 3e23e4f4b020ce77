"""Hierarchical Tucker format: leaves-to-root truncation over a dimension tree,
right-orthogonalization, reconstruction.

Tree nodes are the half-open mode intervals ``(lo, hi)`` of
:class:`~tiht.formats.family.DimensionTree`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import top_left_vectors
from ..tensors import as_tensor, matricize, mode_product, tensorize, unvec
from .family import DimensionTree, Node, clamp_ranks, mode_sets, node_of, probe_ranks
from .hosvd import hosvd_truncate

__all__ = [
    "HTDecomposition",
    "ht_truncate",
    "ht_right_orthogonalize",
    "ht_rank",
    "normalize_ht_ranks",
]


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

    def rank(self, node: Node) -> int:
        if self.tree.is_leaf(node):
            return self.frames[node[0]].shape[1]
        return self.transfers[node].shape[0]

    def _node_frame(self, node: Node) -> np.ndarray:
        if self.tree.is_leaf(node):
            return self.frames[node[0]]
        s1, s2 = self.tree.children(node)
        U1 = self._node_frame(s1)
        U2 = self._node_frame(s2)
        B = self.transfers[node]
        Bmat = matricize(B, (1, 2))  # (r1 * r2, r_t), left-son index fastest
        return np.kron(U2, U1) @ Bmat

    def reconstruct(self) -> np.ndarray:
        v = self._node_frame(self.tree.root)
        return unvec(v[:, 0], self.shape)


def normalize_ht_ranks(tree: DimensionTree, ranks, shape) -> dict[Node, int]:
    """Expand an int or node-keyed mapping into per-node ranks.

    Ranks are clamped to the matricization dimensions; the root is always 1.
    """
    sets, r = clamp_ranks("ht", ranks, shape, tree)
    return {tree.root: 1, **{node_of(S): v for S, v in zip(sets, r)}}


def ht_truncate(X, tree: DimensionTree, ranks) -> HTDecomposition:
    """Leaves-to-root truncation via successive SVDs of the shrinking core.

    Leaf frames come from the mode-k unfoldings of X; every interior node then
    truncates the current reduced core's matricization that groups its two
    sons.  The error is within (2 + sqrt(2)) * sqrt(d) of the best rank-r
    approximation error.
    """
    X = as_tensor(X)
    dims = X.shape
    r = normalize_ht_ranks(tree, ranks, dims)

    leaves = hosvd_truncate(X, [r[leaf] for leaf in tree.leaves()])
    frames = dict(enumerate(leaves.factors))
    C = leaves.core

    active: list[Node] = [(i, i + 1) for i in range(X.ndim)]
    transfers: dict[Node, np.ndarray] = {}
    for node in tree.interior_bottom_up(include_root=False):
        s1, s2 = tree.children(node)
        p = active.index(s1)
        r1, r2 = C.shape[p], C.shape[p + 1]
        M = matricize(C, (p, p + 1))
        rt = min(r[node], min(M.shape))
        W = top_left_vectors(M, rt)
        transfers[node] = W.reshape(r1, r2, rt, order="F").transpose(2, 0, 1)
        new_shape = C.shape[:p] + (rt,) + C.shape[p + 2 :]
        C = tensorize(W.conj().T @ M, (p,), new_shape)
        active[p : p + 2] = [node]

    s1, s2 = tree.children(tree.root)
    if active != [s1, s2]:
        raise RuntimeError("tree traversal did not reduce to the root's sons")
    transfers[tree.root] = C[None, :, :]
    return HTDecomposition(tree=tree, transfers=transfers, frames=frames, shape=dims)


def ht_right_orthogonalize(H: HTDecomposition) -> HTDecomposition:
    """QR sweep from the deepest transfer tensors up to the root.

    Each non-root transfer tensor is replaced by the orthogonal factor of the
    QR decomposition of its {2,3}-flattening; the triangular factor is
    absorbed into the father on the matching son slot.  The represented
    tensor is unchanged; only the root may stay non-orthogonal.
    """
    transfers = {t: B for t, B in H.transfers.items()}
    tree = H.tree
    for node in tree.interior_bottom_up(include_root=False):
        B = transfers[node]
        rt, r1, r2 = B.shape
        Q, R = np.linalg.qr(matricize(B, (1, 2)))
        k = Q.shape[1]
        transfers[node] = Q.reshape(r1, r2, k, order="F").transpose(2, 0, 1)
        father = tree.parent(node)
        side = 1 if tree.children(father)[0] == node else 2
        transfers[father] = mode_product(transfers[father], R, side)
    return HTDecomposition(tree=tree, transfers=transfers, frames=dict(H.frames), shape=H.shape)


def ht_rank(X, tree: DimensionTree) -> dict[Node, int]:
    """Numerical rank of the node matricization, for every tree node."""
    sets = mode_sets("ht", np.ndim(X), tree)
    return {tree.root: 1, **{node_of(S): v for S, v in zip(sets, probe_ranks(X, sets))}}

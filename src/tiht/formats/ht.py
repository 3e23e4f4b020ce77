"""Hierarchical Tucker format: leaves-to-root truncation over a dimension tree,
reconstruction and random draws.

Tree nodes are the mode tuples of :class:`~tiht.formats.family.DimensionTree`,
and every walk over the tree runs through its ``sets``, sons before fathers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import top_left_bases
from ..tensors import check_shape, matricize, tensorize, unvec
from .family import DimensionTree, default_tree, draw_ranks
from .hosvd import hosvd_truncate

__all__ = ["HTDecomposition", "ht_random"]


@dataclass(frozen=True)
class HTDecomposition:
    """Transfer tensors at interior nodes, orthonormal frames at the leaves.

    ``transfers[t]`` has shape (r_t, r_t1, r_t2); the root has r_root = 1.
    ``frames[i]`` has shape (n_i, r_i).
    """

    tree: DimensionTree
    transfers: dict[tuple[int, ...], np.ndarray]
    frames: dict[int, np.ndarray]
    shape: tuple[int, ...]

    def _frames(self, nodes) -> dict[tuple[int, ...], np.ndarray]:
        """``U_t`` for every node of ``nodes``, which lists sons before fathers.

        A leaf's frame is its leaf frame, an interior node's
        ``kron(U_t2, U_t1) @ matricize(B_t, (1, 2))``.
        """
        U = {}
        for t in nodes:
            if len(t) == 1:
                U[t] = self.frames[t[0]]
            else:
                s1, s2 = self.tree.children[t]
                # (r1 * r2, r_t), left-son index fastest
                U[t] = np.kron(U[s2], U[s1]) @ matricize(self.transfers[t], (1, 2))
        return U

    def reconstruct(self) -> np.ndarray:
        v = self._frames(self.tree.sets + [self.tree.root])[self.tree.root]
        return unvec(v[:, 0], self.shape)

    def blocks(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """``(t, U_t)`` for every non-root node t, in ``mode_sets`` order.

        The node frames have orthonormal columns whenever the leaf frames and
        the transfer tensors' {2,3}-flattenings do, as after :func:`ht_truncate`.
        """
        return list(self._frames(self.tree.sets).items())


def ht_truncate(X: np.ndarray, tree: DimensionTree, ranks) -> HTDecomposition:
    """Leaves-to-root truncation via successive SVDs of the shrinking core.

    Takes an array and the node ranks ``clamp_ranks`` returns, one per node of
    ``tree.sets``; ``formats.truncate`` is the entry point that checks them.
    Leaf frames come from the mode-k unfoldings of X; every interior node then
    truncates the current reduced core's matricization that groups its two
    sons, in ``tree.sets`` order, sons before fathers.  The error is within
    (2 + sqrt(2)) * sqrt(d) of the best rank-r approximation error.
    """
    dims = X.shape
    r = dict(zip(tree.sets, ranks))

    leaves = hosvd_truncate(X, [r[(k,)] for k in range(X.ndim)])
    frames = dict(enumerate(leaves.factors))
    C = leaves.core

    active = [(i,) for i in range(X.ndim)]
    transfers = {}
    for node in (S for S in tree.sets if len(S) > 1):
        p = active.index(tree.children[node][0])
        r1, r2 = C.shape[p], C.shape[p + 1]
        M = matricize(C, (p, p + 1))
        W = top_left_bases([M], [r[node]])[0]
        rt = W.shape[1]
        transfers[node] = W.reshape(r1, r2, rt, order="F").transpose(2, 0, 1)
        new_shape = C.shape[:p] + (rt,) + C.shape[p + 2 :]
        C = tensorize(W.conj().T @ M, (p,), new_shape)
        active[p : p + 2] = [node]

    if active != list(tree.children[tree.root]):
        raise RuntimeError("tree traversal did not reduce to the root's sons")
    transfers[tree.root] = C[None, :, :]
    return HTDecomposition(tree=tree, transfers=transfers, frames=frames, shape=dims)


def ht_random(shape, ranks, seed, tree: DimensionTree | None = None) -> np.ndarray:
    """Random tensor over ``tree`` (balanced by default) at the node ranks ``clamp_ranks`` gives:
    orthonormalized N(0,1) leaf frames and i.i.d. N(0,1) transfer tensors."""
    dims = check_shape(shape)
    tree = default_tree(tree, len(dims))
    ranks = {tree.root: 1, **dict(zip(*draw_ranks("ht", ranks, dims, tree)))}
    rng = np.random.default_rng(seed)
    frames, transfers = {}, {}
    # by last mode, then size: left subtree, right subtree, node, the
    # depth-first order that fixes every seeded draw
    for t in sorted(ranks, key=lambda t: (t[-1], len(t))):
        if len(t) == 1:
            frames[t[0]], _ = np.linalg.qr(rng.standard_normal((dims[t[0]], ranks[t])))
        else:
            s1, s2 = tree.children[t]
            r = (ranks[t], ranks[s1], ranks[s2])
            transfers[t] = rng.standard_normal((r[0], r[1] * r[2])).reshape(r, order="F")
    return HTDecomposition(tree, transfers, frames, dims).reconstruct()

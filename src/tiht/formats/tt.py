"""Tensor-train format: TT-SVD truncation, reconstruction and random draws.

Cores are G_1 (n_1 x r_1), G_k (r_{k-1} x n_k x r_k) for interior k, and
G_d (r_{d-1} x n_d); entries come from the chained matrix products
G_1(i_1) G_2(i_2) ... G_d(i_d).  After TT-SVD every core but the last is
left-orthogonal (its {1,2}-flattening has orthonormal columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import signed_svd
from ..tensors import check_shape, matricize
from .family import draw_ranks

__all__ = ["TTDecomposition", "tt_random"]


@dataclass(frozen=True)
class TTDecomposition:
    """Chain of TT cores; ``cores[0]`` is a matrix, interior cores are 3-way."""

    cores: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        X = self.cores[0]
        for G in self.cores[1:]:
            X = np.tensordot(X, G, axes=(X.ndim - 1, 0))
        return X

    def blocks(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """``((0, ..., i-1), F_i)`` for every prefix: the left-orthogonal prefix frames.

        ``F_1 = G_1`` and ``F_i`` contracts ``F_{i-1}`` with ``G_i``.  With
        left-orthogonal cores, as after :func:`tt_truncate`, the columns of
        ``F_i`` are orthonormal and span the column space of the prefix
        unfolding of the reconstruction whenever its rank is r_i.
        """
        F = self.cores[0]
        out = [((0,), F)]
        for i, G in enumerate(self.cores[1:-1], start=2):
            r_prev, n, r = G.shape
            F = (F @ G.reshape(r_prev, n * r, order="F")).reshape(-1, r, order="F")
            out.append((tuple(range(i)), F))
        return out


def tt_truncate(X: np.ndarray, ranks) -> TTDecomposition:
    """TT-SVD: successive truncated SVDs of the {1,2}-flattened remainders.

    Takes an array and the ranks ``clamp_ranks`` returns; ``formats.truncate``
    is the entry point that checks them.  The error is within sqrt(d-1) of the
    best TT rank-r approximation error.
    """
    dims = X.shape
    cores = []
    M = matricize(X, (0,))  # n_1 x (n_2 ... n_d)
    prev = 1
    for k, rk in enumerate(ranks):
        rows = prev * dims[k]
        A = M.reshape(rows, -1, order="F")
        U, s, Vt = signed_svd(A)
        U = U[:, :rk]
        if k == 0:
            cores.append(U)
        else:
            cores.append(U.reshape(prev, dims[k], rk, order="F"))
        M = s[:rk, None] * Vt[:rk]
        prev = rk
    cores.append(M)
    return TTDecomposition(cores=tuple(cores))


def tt_random(shape, ranks, seed) -> np.ndarray:
    """Random tensor of i.i.d. N(0,1) TT cores at the ranks ``clamp_ranks`` gives."""
    dims = check_shape(shape)
    r = (1, *draw_ranks("tt", ranks, dims)[1], 1)
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal((r[k], dims[k], r[k + 1])) for k in range(len(dims))]
    # boundary ranks are 1: the first core is n_1 x r_1, the last r_{d-1} x n_d
    return TTDecomposition((cores[0][0], *cores[1:-1], cores[-1][..., 0])).reconstruct()

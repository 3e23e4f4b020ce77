"""Tensor-train format: TT-SVD truncation and reconstruction.

Cores are G_1 (n_1 x r_1), G_k (r_{k-1} x n_k x r_k) for interior k, and
G_d (r_{d-1} x n_d); entries come from the chained matrix products
G_1(i_1) G_2(i_2) ... G_d(i_d).  After TT-SVD every core but the last is
left-orthogonal (its {1,2}-flattening has orthonormal columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import signed_svd
from ..tensors import as_tensor, matricize
from .family import clamp_ranks, mode_sets, probe_ranks

__all__ = ["TTDecomposition", "tt_truncate", "tt_rank"]


@dataclass(frozen=True)
class TTDecomposition:
    """Chain of TT cores; ``cores[0]`` is a matrix, interior cores are 3-way."""

    cores: tuple[np.ndarray, ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(G.shape[-1] for G in self.cores[:-1])

    def reconstruct(self) -> np.ndarray:
        X = self.cores[0]
        for G in self.cores[1:]:
            X = np.tensordot(X, G, axes=(X.ndim - 1, 0))
        return X


def tt_truncate(X, ranks) -> TTDecomposition:
    """TT-SVD: successive truncated SVDs of the {1,2}-flattened remainders.

    The error is within sqrt(d-1) of the best TT rank-r approximation error.
    """
    X = as_tensor(X)
    dims = X.shape
    d = X.ndim
    _, r = clamp_ranks("tt", ranks, dims)

    cores = []
    M = matricize(X, (0,))  # n_1 x (n_2 ... n_d)
    prev = 1
    for k in range(d - 1):
        rows = prev * dims[k]
        A = M.reshape(rows, -1, order="F")
        U, s, Vt = signed_svd(A)
        rk = min(r[k], len(s))
        U = U[:, :rk]
        if k == 0:
            cores.append(U)
        else:
            cores.append(U.reshape(prev, dims[k], rk, order="F"))
        M = s[:rk, None] * Vt[:rk]
        prev = rk
    cores.append(M)
    return TTDecomposition(cores=tuple(cores))


def tt_rank(X) -> tuple[int, ...]:
    """Numerical ranks of the matricizations that split after mode i, i = 1..d-1."""
    return probe_ranks(X, mode_sets("tt", np.ndim(X)))

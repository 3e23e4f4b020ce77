"""Higher-order SVD: rank-r truncation, reconstruction and random draws.

The decomposition of X is ``core x_1 U_1 ... x_d U_d`` with the U_k holding
left singular vectors of the mode-k unfoldings.  By construction the core is
all-orthogonal and its mode-k subtensor norms equal the unfolding's singular
values, hence are nonincreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import fix_svd_signs, top_left_bases
from ..tensors import check_shape, matricize, mode_product
from .family import draw_ranks

__all__ = ["HosvdDecomposition", "hosvd_random"]


@dataclass(frozen=True)
class HosvdDecomposition:
    """Core tensor of shape (r_1, ..., r_d) plus per-mode factors (n_k x r_k)."""

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        X = self.core
        for k, U in enumerate(self.factors):
            X = mode_product(X, U, k)
        return X

    def blocks(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """``((k,), U_k)`` for every mode: the factors span the mode-k unfoldings' column spaces."""
        return [((k,), U) for k, U in enumerate(self.factors)]


def hosvd_truncate(X: np.ndarray, ranks) -> HosvdDecomposition:
    """The truncation operator H_r: keep the top r_k left singular vectors per mode.

    Takes an array and the ranks ``clamp_ranks`` returns; ``formats.truncate``
    is the entry point that checks them.  Quasi-optimal: the error is within
    sqrt(d) of the best rank-r approximation error.
    """
    factors = tuple(top_left_bases([matricize(X, (k,)) for k in range(X.ndim)], ranks))
    core = X
    for k, U in enumerate(factors):
        core = mode_product(core, U.conj().T, k)
    return HosvdDecomposition(core=core, factors=factors)


def hosvd_random(shape, ranks, seed) -> np.ndarray:
    """Random tensor of exact (almost surely) multilinear rank ``ranks``: an i.i.d. N(0,1) core
    and, per mode, the first r_k left singular vectors of an n_k x n_k standard Gaussian matrix."""
    dims = check_shape(shape)
    _, r = draw_ranks("hosvd", ranks, dims)
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(r)
    factors = []
    for n, rk in zip(dims, r):
        U, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
        factors.append(fix_svd_signs(U[:, :rk]))
    return HosvdDecomposition(core, tuple(factors)).reconstruct()

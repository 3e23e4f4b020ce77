"""Higher-order SVD: full decomposition, rank-r truncation, reconstruction.

The decomposition of X is ``core x_1 U_1 ... x_d U_d`` with the U_k holding
left singular vectors of the mode-k unfoldings.  By construction the core is
all-orthogonal and its mode-k subtensor norms equal the unfolding's singular
values, hence are nonincreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import top_left_vectors
from ..tensors import as_tensor, matricize, mode_product
from .family import DegenerateTensorError, clamp_ranks, mode_sets, probe_ranks

__all__ = ["HosvdDecomposition", "hosvd_decompose", "hosvd_truncate", "hosvd_rank"]


@dataclass(frozen=True)
class HosvdDecomposition:
    """Core tensor of shape (r_1, ..., r_d) plus per-mode factors (n_k x r_k)."""

    core: np.ndarray
    factors: tuple[np.ndarray, ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    def reconstruct(self) -> np.ndarray:
        X = self.core
        for k, U in enumerate(self.factors):
            X = mode_product(X, U, k)
        return X


def hosvd_decompose(X) -> HosvdDecomposition:
    """Full HOSVD at the numerical ranks of all unfoldings.

    Raises :class:`DegenerateTensorError` for the zero tensor.  The
    reconstruction equals X up to roundoff.
    """
    X = as_tensor(X)
    if not np.any(X):
        raise DegenerateTensorError("HOSVD of the zero tensor is undefined")
    return hosvd_truncate(X, hosvd_rank(X))


def hosvd_truncate(X, ranks) -> HosvdDecomposition:
    """The truncation operator H_r: keep the top r_k left singular vectors per mode.

    Quasi-optimal: the error is within sqrt(d) of the best rank-r
    approximation error.
    """
    X = as_tensor(X)
    sets, r = clamp_ranks("hosvd", ranks, X.shape)
    factors = tuple(top_left_vectors(matricize(X, S), v) for S, v in zip(sets, r))
    core = X
    for k, U in enumerate(factors):
        core = mode_product(core, U.conj().T, k)
    return HosvdDecomposition(core=core, factors=factors)


def hosvd_rank(X) -> tuple[int, ...]:
    """Numerical ranks of all mode-k unfoldings."""
    return probe_ranks(X, mode_sets("hosvd", np.ndim(X)))

"""Linear measurement ensembles mapping tensors to length-m vectors, with exact adjoints.

Three ensembles: dense Gaussian (entries N(0, 1/m)), randomized Fourier
(sign flip, unnormalized d-dimensional DFT, uniform subsampling without
replacement, all scaled by 1/sqrt(m)), and entry sampling for completion
(scaled by sqrt(N/m)).  All are normalized so that E||A(X)||^2 = ||X||_F^2.

Every ensemble but an explicit Gaussian matrix comes from
``draw(kind, shape, m, seed)``; the Fourier and completion constructors take
``(shape, m, seed)`` themselves.  Ensembles are immutable and never stored,
only re-drawn from their seed; ``apply``/``adjoint`` are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .tensors import check_choice, check_count, check_shape

__all__ = [
    "ENSEMBLES",
    "MeasurementEnsemble",
    "GaussianEnsemble",
    "FourierEnsemble",
    "CompletionEnsemble",
    "draw",
]


class MeasurementEnsemble:
    """A map is ``shape``, ``m``, ``apply`` (tensor -> m-vector) and its exact ``adjoint``; nothing else is read."""

    def __init__(self, shape, m: int):
        self.shape = check_shape(shape)
        self.size = math.prod(self.shape)
        self.m = check_count("m", m)

    def _draw_sample_set(self, rng) -> np.ndarray:
        """m distinct flat indices drawn uniformly without replacement."""
        if self.m > self.size:
            raise ValueError(f"m = {self.m} exceeds tensor size {self.size}")
        return rng.choice(self.size, size=self.m, replace=False)

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if X.shape != self.shape:
            raise ValueError(f"tensor of shape {X.shape} does not match ensemble shape {self.shape}")
        return X

    def _check_vector(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        if y.shape != (self.m,):
            raise ValueError(f"measurement vector of shape {y.shape}, expected ({self.m},)")
        return y

    def apply(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class GaussianEnsemble(MeasurementEnsemble):
    """Dense map y = A vec(X) with i.i.d. N(0, 1/m) entries."""

    def __init__(self, matrix: np.ndarray, shape):
        matrix = np.asarray(matrix, dtype=np.float64)
        super().__init__(shape, matrix.shape[0])
        if matrix.shape != (self.m, self.size):
            raise ValueError(f"matrix shape {matrix.shape} does not match ({self.m}, {self.size})")
        self.matrix = matrix

    @classmethod
    def draw(cls, shape, m: int, seed) -> "GaussianEnsemble":
        shape, m = check_shape(shape), check_count("m", m)
        A = np.random.default_rng(seed).standard_normal((m, math.prod(shape)))
        A /= math.sqrt(m)  # the bits of a new quotient, without NumPy's first temporary reuse (about 0.5 MB RSS)
        return cls(A, shape)

    def apply(self, X):
        X = self._check_input(X)
        return self.matrix @ X.reshape(-1, order="F")

    def adjoint(self, y):
        y = self._check_vector(y)
        return (self.matrix.T @ y).reshape(self.shape, order="F")


class FourierEnsemble(MeasurementEnsemble):
    """y = R_Omega F_d (eps * X) / sqrt(m) with the unnormalized d-dim DFT F_d.

    ``signs`` holds the +-1 entries of the diagonal flip; ``omega`` holds m
    distinct flat indices (colexicographic order) sampled uniformly without
    replacement.  Both are drawn from ``seed``, the signs first.  The DFT
    kernel is exp(-2 pi i sum_l j_l k_l / n_l) with 0-based indices, i.e.
    numpy's ``fftn``.
    """

    def __init__(self, shape, m: int, seed):
        super().__init__(shape, m)
        rng = np.random.default_rng(seed)
        self.signs = rng.integers(0, 2, size=self.shape).astype(np.float64) * 2.0 - 1.0
        self.omega = self._draw_sample_set(rng)

    def apply(self, X):
        X = self._check_input(X)
        F = np.fft.fftn(self.signs * X)
        return F.reshape(-1, order="F")[self.omega] / math.sqrt(self.m)

    def adjoint(self, y):
        y = self._check_vector(y)
        T = np.zeros(self.size, dtype=np.complex128)
        T[self.omega] = y
        G = np.fft.ifftn(T.reshape(self.shape, order="F")) * self.size  # F_d^H
        return self.signs * G / math.sqrt(self.m)


class CompletionEnsemble(MeasurementEnsemble):
    """Entry sampling: y_j = sqrt(N/m) X(j) for the m flat indices j drawn from ``seed``."""

    def __init__(self, shape, m: int, seed):
        super().__init__(shape, m)
        self.omega = self._draw_sample_set(np.random.default_rng(seed))
        self.scale = math.sqrt(self.size / self.m)

    def apply(self, X):
        X = self._check_input(X)
        return self.scale * X.reshape(-1, order="F")[self.omega]

    def adjoint(self, y):
        y = self.scale * self._check_vector(y)
        out = np.zeros(self.size, dtype=y.dtype)
        out[self.omega] = y
        return out.reshape(self.shape, order="F")


_KINDS = {
    "gaussian": GaussianEnsemble.draw,
    "fourier": FourierEnsemble,
    "completion": CompletionEnsemble,
}
ENSEMBLES = tuple(_KINDS)


def draw(kind: str, shape, m: int, seed) -> MeasurementEnsemble:
    """Draw a reproducible ensemble of the given kind."""
    return _KINDS[check_choice("ensemble", kind, ENSEMBLES)](shape, m, seed)


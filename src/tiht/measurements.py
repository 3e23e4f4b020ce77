"""Linear measurement ensembles mapping tensors to length-m vectors, with exact adjoints.

Three ensembles: dense Gaussian (entries N(0, 1/m)), randomized Fourier
(sign flip, unnormalized d-dimensional DFT, uniform subsampling without
replacement, all scaled by 1/sqrt(m)), and entry sampling for completion
(scaled by sqrt(N/m)).  All are normalized so that E||A(X)||^2 = ||X||_F^2.

Ensembles are immutable after :func:`draw`; ``apply``/``adjoint`` are pure.
An ensemble is never stored: it is re-drawn from ``draw(kind, shape, m, seed)``.
"""

from __future__ import annotations

import math

import numpy as np

from .tensors import check_shape, unvec, vec

__all__ = [
    "ENSEMBLES",
    "MeasurementEnsemble",
    "GaussianEnsemble",
    "FourierEnsemble",
    "CompletionEnsemble",
    "draw",
]


class MeasurementEnsemble:
    """Common surface: ``apply`` (tensor -> m-vector) and its exact ``adjoint``."""

    def __init__(self, shape, m: int):
        self.shape = check_shape(shape)
        self.size = math.prod(self.shape)
        if m < 1:
            raise ValueError(f"number of measurements must be >= 1, got {m}")
        self.m = int(m)

    @property
    def field(self) -> str:
        return "real"

    def _check_sample_set(self, omega: np.ndarray) -> None:
        """The m sampled flat indices must be distinct, so m cannot exceed the tensor size."""
        if self.m > self.size:
            raise ValueError(f"m = {self.m} exceeds tensor size {self.size}")
        if len(np.unique(omega)) != omega.size:
            raise ValueError("sample set must consist of distinct indices")

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


def _draw_sample_set(shape, m: int, rng) -> np.ndarray:
    """m distinct flat indices drawn uniformly without replacement."""
    N = math.prod(shape)
    if not 1 <= m <= N:
        raise ValueError(f"need 1 <= m <= {N}, got m = {m}")
    return rng.choice(N, size=int(m), replace=False)


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
        shape = check_shape(shape)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((int(m), math.prod(shape))) / math.sqrt(m)
        return cls(A, shape)

    def apply(self, X):
        X = self._check_input(X)
        return self.matrix @ vec(X)

    def adjoint(self, y):
        y = self._check_vector(y)
        return unvec(self.matrix.T @ y, self.shape)


class FourierEnsemble(MeasurementEnsemble):
    """y = R_Omega F_d (eps * X) / sqrt(m) with the unnormalized d-dim DFT F_d.

    ``signs`` holds the +-1 entries of the diagonal flip; ``omega`` holds m
    distinct flat indices (colexicographic order) sampled uniformly without
    replacement.  The DFT kernel is exp(-2 pi i sum_l j_l k_l / n_l) with
    0-based indices, i.e. numpy's ``fftn``.
    """

    def __init__(self, signs: np.ndarray, omega: np.ndarray):
        signs = np.asarray(signs, dtype=np.float64)
        omega = np.asarray(omega, dtype=np.intp)
        super().__init__(signs.shape, omega.size)
        self._check_sample_set(omega)
        self.signs = signs
        self.omega = omega

    @property
    def field(self) -> str:
        return "complex"

    @classmethod
    def draw(cls, shape, m: int, seed) -> "FourierEnsemble":
        shape = check_shape(shape)
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
        return cls(signs, _draw_sample_set(shape, m, rng))

    def apply(self, X):
        X = self._check_input(X)
        F = np.fft.fftn(self.signs * X)
        return vec(F)[self.omega] / math.sqrt(self.m)

    def adjoint(self, y):
        y = self._check_vector(y)
        T = np.zeros(self.size, dtype=np.complex128)
        T[self.omega] = y
        G = np.fft.ifftn(unvec(T, self.shape)) * self.size  # F_d^H
        return self.signs * G / math.sqrt(self.m)


class CompletionEnsemble(MeasurementEnsemble):
    """Entry sampling: y_j = sqrt(N/m) X(j) for j in the sample set."""

    def __init__(self, shape, omega: np.ndarray):
        omega = np.asarray(omega, dtype=np.intp)
        super().__init__(shape, omega.size)
        self._check_sample_set(omega)
        self.omega = omega
        self.scale = math.sqrt(self.size / self.m)

    @classmethod
    def draw(cls, shape, m: int, seed) -> "CompletionEnsemble":
        shape = check_shape(shape)
        return cls(shape, _draw_sample_set(shape, m, np.random.default_rng(seed)))

    def apply(self, X):
        X = self._check_input(X)
        return self.scale * vec(X)[self.omega]

    def adjoint(self, y):
        y = self._check_vector(y)
        out = np.zeros(self.size, dtype=np.asarray(y).dtype)
        out[self.omega] = self.scale * y
        return unvec(out, self.shape)


_KINDS = {
    "gaussian": GaussianEnsemble,
    "fourier": FourierEnsemble,
    "completion": CompletionEnsemble,
}
ENSEMBLES = tuple(_KINDS)


def draw(kind: str, shape, m: int, seed) -> MeasurementEnsemble:
    """Draw a reproducible ensemble of the given kind."""
    if kind not in _KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}; choose from {sorted(_KINDS)}")
    return _KINDS[kind].draw(shape, m, seed)


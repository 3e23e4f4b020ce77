"""Dense tensor values and the reshaping/multilinear algebra everything else builds on.

Tensors are plain :class:`numpy.ndarray` objects of dtype float64 ("real"
field) or complex128 ("complex" field).  A single linearization rule is used
everywhere: multi-indices map to flat offsets colexicographically, i.e. the
*first* index varies fastest.  This is numpy's Fortran order, so ``vec`` is
``reshape(-1, order="F")`` and every matricization below linearizes its row
and column index groups the same way.  Mode indices are 0-based.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

__all__ = [
    "check_shape",
    "as_tensor",
    "vec",
    "unvec",
    "check_modes",
    "complement_modes",
    "matricize",
    "tensorize",
    "mode_product",
    "frobenius_norm",
]

_REAL_DTYPE = np.float64
_COMPLEX_DTYPE = np.complex128


def check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """Validate tensor extents: order >= 1 and every extent >= 1."""
    dims = tuple(int(n) for n in shape)
    if len(dims) < 1:
        raise ValueError("tensor order must be at least 1")
    if any(n < 1 for n in dims):
        raise ValueError(f"all extents must be >= 1, got {dims}")
    return dims


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a dense tensor: complex128 if it is complex, float64 otherwise."""
    X = np.asarray(data)
    X = np.asarray(X, dtype=_COMPLEX_DTYPE if np.iscomplexobj(X) else _REAL_DTYPE)
    check_shape(X.shape)
    return X


def vec(X: np.ndarray) -> np.ndarray:
    """Flatten to the documented linear order (first index fastest)."""
    return np.reshape(X, -1, order="F")


def unvec(x: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`vec` for the given shape."""
    dims = check_shape(shape)
    x = np.asarray(x)
    if x.size != math.prod(dims):
        raise ValueError(f"vector of length {x.size} does not fill shape {dims}")
    return np.reshape(x, dims, order="F")


def check_modes(modes: Sequence[int], order: int) -> tuple[int, ...]:
    """Validate a mode set: strictly increasing, nonempty subset of range(order)."""
    S = tuple(int(k) for k in modes)
    if len(S) == 0:
        raise ValueError("mode set must be nonempty")
    if any(k < 0 or k >= order for k in S):
        raise ValueError(f"mode set {S} out of range for order {order}")
    if any(a >= b for a, b in zip(S, S[1:])):
        raise ValueError(f"mode set {S} must be strictly increasing")
    return S


def complement_modes(modes: Sequence[int], order: int) -> tuple[int, ...]:
    S = set(modes)
    return tuple(k for k in range(order) if k not in S)


@functools.lru_cache(maxsize=256)
def _layout(modes: tuple[int, ...], shape: tuple[int, ...]):
    """Validated layout of the S-matricization of a tensor of this shape.

    The axis permutation (row modes, then the rest), its inverse, the row and
    column counts and the permuted extents, computed once per (modes, shape).
    """
    dims = check_shape(shape)
    S = check_modes(modes, len(dims))
    perm = S + complement_modes(S, len(dims))
    inverse = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    rows = math.prod(dims[k] for k in S)
    return perm, inverse, rows, math.prod(dims) // rows, tuple(dims[k] for k in perm)


def matricize(X: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """S-matricization: rows indexed by ``modes``, columns by the complement.

    Row and column composite indices are both linearized colexicographically
    (first listed mode fastest).  The result is a
    (prod of row extents) x (prod of column extents) matrix.
    """
    X = np.asarray(X)
    perm, _, rows, cols, _ = _layout(tuple(modes), X.shape)
    return np.transpose(X, perm).reshape(rows, cols, order="F")


def tensorize(M: np.ndarray, modes: Sequence[int], shape: Sequence[int]) -> np.ndarray:
    """Exact inverse of :func:`matricize` for the same mode set and shape."""
    M = np.asarray(M)
    perm, inverse, rows, cols, permuted_shape = _layout(tuple(modes), tuple(shape))
    if M.shape != (rows, cols):
        raise ValueError(
            f"matrix of shape {M.shape} inconsistent with modes {tuple(modes)} of shape {tuple(shape)}"
        )
    return np.transpose(M.reshape(permuted_shape, order="F"), inverse)


def mode_product(X: np.ndarray, A: np.ndarray, k: int) -> np.ndarray:
    """k-mode product: contract mode ``k`` of ``X`` with the columns of ``A``.

    ``A`` must have shape (J, n_k); the result replaces extent n_k by J.
    No conjugation is applied (plain linear contraction).
    """
    X = np.asarray(X)
    A = np.asarray(A)
    if not 0 <= k < X.ndim:
        raise ValueError(f"mode {k} out of range for order {X.ndim}")
    if A.ndim != 2 or A.shape[1] != X.shape[k]:
        raise ValueError(
            f"matrix of shape {A.shape} cannot contract mode {k} of extent {X.shape[k]}"
        )
    # tensordot's own contraction, without its and moveaxis's axis normalization
    d = X.ndim
    Y = np.dot(X.transpose(*range(k), *range(k + 1, d), k).reshape(-1, X.shape[k]), A.T)
    Y = Y.reshape(X.shape[:k] + X.shape[k + 1 :] + A.shape[:1])
    return Y.transpose(*range(k), d - 1, *range(k, d - 1))


def frobenius_norm(X: np.ndarray) -> float:
    """sqrt of the sum of squared entry magnitudes."""
    return float(np.linalg.norm(np.asarray(X)))

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
    "check_count",
    "check_real",
    "check_choice",
    "check_shape",
    "as_tensor",
    "vec",
    "matricize",
    "tensorize",
    "mode_product",
    "frobenius_norm",
]

_REAL_DTYPE = np.float64
_COMPLEX_DTYPE = np.complex128


def check_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int: a count (extent, rank, m, ...) is an int or NumPy integer >= ``minimum``; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(name: str, value, interval: str = "(0, inf)") -> float:
    """``value`` as a float: an int, float or NumPy real, not a bool, in ``interval`` ("[0, 1)", "(0, inf)", ...)."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and lo <= value <= hi) or value == lo and interval[0] == "(" or value == hi and interval[-1] == ")":
        raise ValueError(f"{name} must be a finite real in {interval}, got {value!r}")
    return float(value)


def check_choice(name: str, value, choices: Sequence[str]) -> str:
    """``value`` itself: a name (format, variant, ensemble) is a str among ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """Validate tensor extents: order >= 1 and every extent a count >= 1."""
    dims = tuple(check_count("extent", n) for n in shape)
    if not dims:
        raise ValueError("tensor order must be at least 1")
    return dims


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a dense tensor: complex128 if it is complex, float64 otherwise."""
    X = np.asarray(data)
    X = np.asarray(X, dtype=_COMPLEX_DTYPE if np.iscomplexobj(X) else _REAL_DTYPE)
    check_shape(X.shape)
    return X


def vec(X: np.ndarray) -> np.ndarray:
    """Flatten to the documented linear order (first index fastest)."""
    return np.asarray(X).reshape(-1, order="F")


@functools.lru_cache(maxsize=256, typed=True)
def _layout(shape: tuple[int, ...], *modes: int):
    """Validated layout of the S-matricization of a tensor of this shape.

    S is a nonempty, strictly increasing subset of range(order).  The axis permutation
    (row modes, then the rest), its inverse, the row and column counts and the permuted
    extents, computed once per shape and modes, typed: a bool mode is not cached as 0 or 1.
    """
    dims = check_shape(shape)
    S = tuple(check_count("mode index", k, 0) for k in modes)
    if not S:
        raise ValueError("mode set must be nonempty")
    if any(k >= len(dims) for k in S):
        raise ValueError(f"mode set {S} out of range for order {len(dims)}")
    if any(a >= b for a, b in zip(S, S[1:])):
        raise ValueError(f"mode set {S} must be strictly increasing")
    perm = S + tuple(k for k in range(len(dims)) if k not in S)
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
    perm, _, rows, cols, _ = _layout(X.shape, *modes)
    return X.transpose(perm).reshape(rows, cols, order="F")


def tensorize(M: np.ndarray, modes: Sequence[int], shape: Sequence[int]) -> np.ndarray:
    """Exact inverse of :func:`matricize` for the same mode set and shape."""
    M = np.asarray(M)
    perm, inverse, rows, cols, permuted_shape = _layout(tuple(shape), *modes)
    if M.shape != (rows, cols):
        raise ValueError(
            f"matrix of shape {M.shape} inconsistent with modes {tuple(modes)} of shape {tuple(shape)}"
        )
    return M.reshape(permuted_shape, order="F").transpose(inverse)


def mode_product(X: np.ndarray, A: np.ndarray, k: int) -> np.ndarray:
    """k-mode product: contract mode ``k`` of ``X`` with the columns of ``A``.

    ``A`` must have shape (J, n_k); the result replaces extent n_k by J.
    No conjugation is applied (plain linear contraction).
    """
    X = np.asarray(X)
    A = np.asarray(A)
    if check_count("mode index", k, 0) >= X.ndim:
        raise ValueError(f"mode {k} out of range for order {X.ndim}")
    if A.ndim != 2 or A.shape[1] != X.shape[k]:
        raise ValueError(
            f"matrix of shape {A.shape} cannot contract mode {k} of extent {X.shape[k]}"
        )
    # tensordot's own contraction, without its and moveaxis's axis normalization
    to_last, back = _mode_axes(k, X.ndim)
    Y = np.dot(X.transpose(to_last).reshape(-1, X.shape[k]), A.T)
    return Y.reshape(X.shape[:k] + X.shape[k + 1 :] + A.shape[:1]).transpose(back)


@functools.lru_cache(maxsize=64)
def _mode_axes(k: int, d: int):
    """The axis orders that move mode k of an order-d tensor last and back."""
    return (*range(k), *range(k + 1, d), k), (*range(k), d - 1, *range(k, d - 1))


def frobenius_norm(X: np.ndarray) -> float:
    """sqrt of the sum of squared entry magnitudes: ``np.linalg.norm``'s arithmetic, without its dispatch."""
    x = np.asarray(X).ravel(order="K")
    if x.dtype.kind == "c":
        return float(np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)))
    if x.dtype.kind in "biu":
        x = x.astype(float)
    return float(np.sqrt(x.dot(x)))

"""Output checks written apart from tiht, with plain numpy only.

Every check returns a list of messages, empty when the output passes.  The
measurement maps are re-drawn from their seeds by the documented
constructions (README "Conventions"), not by calling tiht:

- Gaussian: a dense (m x N) matrix of N(0, 1/m) entries;
- Fourier: a +-1 sign flip, the unnormalized ``np.fft.fftn`` and the
  subsample ``omega``, scaled by 1/sqrt(m);
- completion: the entries at ``omega``, scaled by sqrt(N/m).

Flat indices are colexicographic (first index fastest) throughout.
"""

from __future__ import annotations

import math

import numpy as np

RANK_RTOL = 1e-10  # singular values below this share of the largest count as zero
VALUE_RTOL = 1e-9  # reported norms against their recomputation


def measurement_map(kind: str, shape, m: int, seed):
    """The ensemble drawn from ``seed``, as a function tensor -> m-vector."""
    shape = tuple(shape)
    N = math.prod(shape)
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        G = rng.standard_normal((m, N)) / math.sqrt(m)
        return lambda X: G @ np.reshape(X, -1, order="F")
    if kind == "fourier":
        signs = rng.integers(0, 2, size=shape) * 2.0 - 1.0
        omega = rng.choice(N, size=m, replace=False)
        return lambda X: np.reshape(np.fft.fftn(signs * X), -1, order="F")[omega] / math.sqrt(m)
    if kind == "completion":
        omega = rng.choice(N, size=m, replace=False)
        scale = math.sqrt(N / m)
        return lambda X: scale * np.reshape(X, -1, order="F")[omega]
    raise ValueError(f"unknown ensemble {kind!r}")


def measurement_count(shape, nbar: int) -> int:
    """m = ceil(N * nbar / 100), in exact integer arithmetic."""
    return -(-math.prod(shape) * nbar // 100)


def _balanced_nodes(lo: int, hi: int):
    """Mode sets of a balanced dimension tree below the root (left son gets the larger half)."""
    if hi - lo == 1:
        return []
    mid = lo + (hi - lo + 1) // 2
    return [tuple(range(lo, mid)), tuple(range(mid, hi))] + _balanced_nodes(lo, mid) + _balanced_nodes(mid, hi)


def mode_groups(fmt: str, order: int) -> list[tuple[int, ...]]:
    """The row-mode sets of the unfoldings that define a format's rank."""
    if fmt == "hosvd":
        return [(k,) for k in range(order)]
    if fmt == "tt":
        return [tuple(range(i)) for i in range(1, order)]
    if fmt == "ht":
        return _balanced_nodes(0, order)
    raise ValueError(f"unknown format {fmt!r}")


def unfolding(X: np.ndarray, modes) -> np.ndarray:
    rest = [k for k in range(X.ndim) if k not in modes]
    rows = math.prod(X.shape[k] for k in modes)
    return np.transpose(X, list(modes) + rest).reshape(rows, -1, order="F")


def numerical_rank(M: np.ndarray) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def target_ranks(fmt: str, rank, shape) -> list[int]:
    """Requested rank per unfolding, clamped to the unfolding's smaller side."""
    groups = mode_groups(fmt, len(shape))
    if fmt == "ht":
        rank = [int(rank)] * len(groups)
    N = math.prod(shape)
    out = []
    for r, S in zip(rank, groups):
        rows = math.prod(shape[k] for k in S)
        out.append(min(int(r), rows, N // rows))
    return out


def check_rank(X: np.ndarray, fmt: str, rank, exact: bool = False) -> list[str]:
    """Format rank of ``X`` at most the target (``exact``: equal to it)."""
    X = np.asarray(X)
    errors = []
    targets = target_ranks(fmt, rank, X.shape)
    for S, r in zip(mode_groups(fmt, X.ndim), targets):
        got = numerical_rank(unfolding(X, S))
        if got > r or (exact and got != r):
            want = f"exactly {r}" if exact else f"at most {r}"
            errors.append(f"{fmt} unfolding {S} has rank {got}, want {want}")
    return errors


def _rel_gap(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


def check_measurements(apply, X0: np.ndarray, y: np.ndarray) -> list[str]:
    """The program's y equals the independent A(X0)."""
    expect = apply(X0)
    if np.shape(y) != expect.shape:
        return [f"measurement vector of shape {np.shape(y)}, want {expect.shape}"]
    gap = _rel_gap(y, expect)
    if not gap <= 1e-12:
        return [f"y differs from A(X0) by {gap:.3e} relative"]
    return []


def check_residual(apply, y: np.ndarray, X_prev: np.ndarray, reported: float) -> list[str]:
    """The reported residual equals ||y - A(X_prev)|| for the iterate it was measured on."""
    expect = float(np.linalg.norm(y - apply(X_prev)))
    if not abs(reported - expect) <= VALUE_RTOL * max(expect, 1e-12):
        return [f"reported residual {reported!r}, recomputed {expect!r}"]
    return []


def check_recovery_flag(X: np.ndarray, X0: np.ndarray, threshold: float, success, final_error) -> list[str]:
    """The success flag agrees with ||X - X0||_F < threshold, and so does the reported error."""
    err = float(np.linalg.norm(np.asarray(X) - X0))
    errors = []
    if bool(success) != (err < threshold):
        errors.append(f"success flag {success} but ||X - X0|| = {err:.3e} against threshold {threshold:g}")
    if not abs(final_error - err) <= VALUE_RTOL * max(err, 1e-12):
        errors.append(f"reported final error {final_error!r}, recomputed {err!r}")
    return errors

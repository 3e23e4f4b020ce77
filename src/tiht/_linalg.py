"""Shared SVD helpers: sign fixing and truncated left bases."""

from __future__ import annotations

import numpy as np


def fix_svd_signs(U: np.ndarray, SVt: np.ndarray | None = None):
    """Normalize each column of ``U`` so its largest-magnitude entry is real positive.

    Resolves the sign/phase ambiguity of singular vectors so fixtures are
    reproducible.  If ``SVt`` (the matching right factor, rows aligned with
    U's columns) is given, it is adjusted so the product is unchanged.
    Leading axes of ``U`` and ``SVt`` are a stack of independent matrices.
    """
    stack = U.reshape(-1, *U.shape[-2:])
    pivot = stack[np.arange(len(stack))[:, None], np.abs(stack).argmax(axis=1), np.arange(U.shape[-1])]
    pivot = pivot.reshape(*U.shape[:-2], 1, U.shape[-1])
    if U.dtype.kind != "c":
        # a real phase is exactly +-1 (NaN for a NaN column), so one product rounds like the loop
        phase = np.divide(pivot, np.abs(pivot), out=np.ones_like(pivot), where=pivot != 0)
        return U * phase if SVt is None else (U * phase, SVt * np.swapaxes(phase, -1, -2))
    # hypot rounds like abs() of one complex scalar; np.abs of a complex array does not
    mag = np.hypot(pivot.real, pivot.imag)
    phase = np.divide(pivot, mag, out=np.ones_like(pivot), where=mag != 0)
    U = _scaled(U, np.conj(phase))
    return U if SVt is None else (U, _scaled(SVt, np.swapaxes(phase, -1, -2)))


def _scaled(M: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``M * factor``, one matrix of the stack at a time and in place, like a column loop.

    numpy rounds a complex product in a one-entry in-place loop differently
    from one inside a longer loop, so a stack of 1 x 1 bases must not become
    one loop.
    """
    M = M.copy()
    for M_i, f_i in zip(M.reshape(-1, *M.shape[-2:]), factor.reshape(-1, *factor.shape[-2:])):
        M_i *= f_i
    return M


def signed_svd(M: np.ndarray):
    """Economy SVD ``M = U @ diag(s) @ Vt`` with the sign convention applied."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U, Vt = fix_svd_signs(U, Vt)
    return U, s, Vt


def top_left_bases(mats, ranks) -> list[np.ndarray]:
    """First ``r`` left singular vectors of every matrix (at most min(M.shape) of them).

    Matrices of one shape share one SVD call on their stack.  When ``M`` has
    fewer than ``r`` nonzero singular values the trailing columns are the
    orthonormal complement LAPACK returns, which keeps the associated
    projector at full rank ``r``.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, M in enumerate(mats):
        groups.setdefault(M.shape, []).append(i)
    bases = [None] * len(mats)
    for shape, idx in groups.items():
        r = [ranks[i] for i in idx]
        U, _, _ = np.linalg.svd(np.array([mats[i] for i in idx]), full_matrices=False)
        U = fix_svd_signs(U[..., : max(r)])
        for U_i, i, r_i in zip(U, idx, r):
            bases[i] = U_i[:, :r_i]
    return bases

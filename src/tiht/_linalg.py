"""Shared SVD helpers: sign fixing and truncated left bases."""

from __future__ import annotations

import numpy as np


def fix_svd_signs(U: np.ndarray, SVt: np.ndarray | None = None):
    """Normalize each column of ``U`` so its largest-magnitude entry is real positive.

    Resolves the sign/phase ambiguity of singular vectors so fixtures are
    reproducible.  If ``SVt`` (the matching right factor, rows aligned with
    U's columns) is given, it is adjusted so the product is unchanged.
    """
    U = U.copy()
    SVt = None if SVt is None else SVt.copy()
    for k in range(U.shape[1]):
        col = U[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if pivot == 0:
            continue
        phase = pivot / abs(pivot)
        U[:, k] *= np.conj(phase)
        if SVt is not None:
            SVt[k, :] *= phase
    return U if SVt is None else (U, SVt)


def signed_svd(M: np.ndarray):
    """Economy SVD ``M = U @ diag(s) @ Vt`` with the sign convention applied."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U, Vt = fix_svd_signs(U, Vt)
    return U, s, Vt


def top_left_vectors(M: np.ndarray, r: int) -> np.ndarray:
    """First ``r`` left singular vectors of ``M`` (clamped to min(M.shape)).

    When ``M`` has fewer than ``r`` nonzero singular values the trailing
    columns are the orthonormal complement LAPACK returns, which keeps the
    associated projector at full rank ``r``.
    """
    r = min(int(r), min(M.shape))
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    return fix_svd_signs(U[:, :r])

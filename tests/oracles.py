"""Test oracles: reference computations the tests compare the library against.

None of these is on the reproduction's path (the solvers, the harness, the
CLI); each one recomputes by another route something the library computes,
or reads back what it writes.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from tiht.analysis import convergence_constants
from tiht.experiments import _COLUMNS
from tiht.formats import mode_sets
from tiht.solvers import _mu_from_direction
from tiht.tensors import as_tensor, matricize, vec


def ntiht_step_size(A, X_j, y, projector):
    """Normalized step ||M(A*(r))||_F^2 / ||A(M(A*(r)))||_2^2 for r = y - A(X_j).

    Returns (mu, fallback) where fallback marks a zero denominator, in which
    case mu = 1 (the residual direction is in the kernel only at convergence).
    The quotient is the solver's own ``_mu_from_direction``.
    """
    g = A.adjoint(y - A.apply(X_j))
    return _mu_from_direction(A, projector(g))


def dense_fourier_matrix(A) -> np.ndarray:
    """Explicit (m x N) matrix R_Omega F_d D / sqrt(m) of a Fourier ensemble, for small N."""
    N = A.size
    F = np.empty((N, N), dtype=np.complex128)
    grids = np.meshgrid(*[np.arange(n) for n in A.shape], indexing="ij")
    flat_coords = [vec(g) for g in grids]
    for row in range(N):
        j = [c[row] for c in flat_coords]
        phase = sum(
            jl * kl / nl for jl, kl, nl in zip(j, flat_coords, A.shape)
        )
        F[row] = np.exp(-2j * np.pi * phase)
    D = np.diag(vec(A.signs))
    return (F @ D)[A.omega] / math.sqrt(A.m)


def contraction_factor(variant: str, a: float, delta3r: float, opnorm: float) -> float:
    """Per-iteration contraction coefficient from the convergence proof.

    CTIHT: 2 delta_3r + sqrt(4 eps + 2 eps^2) (1 + sqrt(1 + delta_3r) ||A||).
    NTIHT replaces the first term by 2((1+delta)/(1-delta) - 1) and scales
    the operator-norm part by 1/(1-delta).  Below delta(a) this is < a.
    """
    consts = convergence_constants(variant, a, delta3r, opnorm)
    eps = consts.eps_of_a
    root = math.sqrt(1.0 + delta3r)
    tail = math.sqrt(4.0 * eps + 2.0 * eps**2)
    if variant == "ctiht":
        return 2.0 * delta3r + tail * (1.0 + root * opnorm)
    return 2.0 * ((1.0 + delta3r) / (1.0 - delta3r) - 1.0) + tail * (
        1.0 + root / (1.0 - delta3r) * opnorm
    )


def field_of(X: np.ndarray) -> str:
    """Return "complex" for complex dtypes, "real" otherwise."""
    return "complex" if np.iscomplexobj(X) else "real"


def common_field(X: np.ndarray, Y: np.ndarray) -> str:
    """Fields of both operands; mixing real and complex is an error, not a coercion."""
    fx, fy = field_of(X), field_of(Y)
    if fx != fy:
        raise ValueError(f"mixed scalar fields: {fx} vs {fy}")
    return fx


def inner_product(X: np.ndarray, Y: np.ndarray):
    """Entrywise inner product; the first argument is conjugated in the complex case."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    field = common_field(X, Y)
    value = np.vdot(X, Y)
    return value.real if field == "real" else value


class DegenerateTensorError(ValueError):
    """Raised when an operation needs a nonzero tensor and got the zero tensor."""


def probe_ranks(X, fmt: str, tree=None) -> tuple[int, ...]:
    """Numerical rank of the matricization of X for every mode set of the format.

    The ranks follow ``mode_sets(fmt, X.ndim, tree)``; an HT probe therefore
    has no entry for the root.  Raises :class:`DegenerateTensorError` for the
    zero tensor.
    """
    X = as_tensor(X)
    sets = mode_sets(fmt, X.ndim, tree)
    if not np.any(X):
        raise DegenerateTensorError("rank of the zero tensor is undefined")
    ranks = []
    for S in sets:
        M = matricize(X, S)
        s = np.linalg.svd(M, compute_uv=False)
        # singular values above max(m, n) * eps * sigma_max; sigma_max > 0
        # because X is nonzero, so every rank is at least 1
        tol = max(M.shape) * np.finfo(np.float64).eps * s[0]
        ranks.append(int(np.count_nonzero(s > tol)))
    return tuple(ranks)


def hosvd_ranks(D) -> tuple[int, ...]:
    """Multilinear ranks of a HOSVD decomposition: the shape of its core."""
    return D.core.shape


def tt_ranks(D) -> tuple[int, ...]:
    """TT ranks of a TT decomposition: the trailing extent of every core but the last."""
    return tuple(G.shape[-1] for G in D.cores[:-1])


def trip_prefix(est, n: int) -> float:
    """delta_hat of a TRIP estimate over its first ``n`` samples (nondecreasing in n)."""
    if not 1 <= n <= est.n_samples:
        raise ValueError(f"need 1 <= n <= {est.n_samples}")
    return float(np.max(est.deviations[:n]))


# the converter that reads back each results-file column, in the order emit_results writes them
_CONVERTERS = dict(zip(_COLUMNS, (str, str, str, str, int, int, int, int, float, float), strict=True))


def load_results(path) -> list[dict]:
    """Parse a results file back into row dicts (numbers restored)."""
    path = str(path)
    try:
        with open(path, newline="") as fh:
            rows = json.load(fh) if path.endswith(".json") else list(csv.DictReader(fh))
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    return [{name: convert(row[name]) for name, convert in _CONVERTERS.items()} for row in rows]

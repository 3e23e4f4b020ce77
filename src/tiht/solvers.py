"""CTIHT and NTIHT iterations over any format/ensemble pair.

The iteration alternates a gradient step ``Y = X + mu * A*(y - A(X))`` with a
format truncation ``X <- H_r(Y)``.  CTIHT uses mu = 1.  NTIHT starts from the
normalized ratio ||M(A*(r))||_F^2 / ||A(M(A*(r)))||_2^2 built on the rank
projector of the current iterate and, in the spirit of the normalized IHT
line of algorithms, stabilizes it: a step is kept when it does not increase
the residual, otherwise it is backed off geometrically until it does, never
below the stability bound mu <= ||dX||_F^2 / ||A(dX)||_2^2 of the
changed-subspace test.  Stopping follows the experimental protocol: a
Frobenius step below ``conv_tol`` (converged) or ``max_iters`` iterations;
iterates leaving the representable range end the run as diverged.

NTIHT iterates stay factored: from the second iteration on, X^j is the
truncation H_r(Y^{j-1}), whose decomposition already holds orthonormal bases
of the matricization column spaces that M^j projects onto, so M^j is built
from those frames (``blocks()``) without an SVD.  Only X^0, which no
truncation produced, goes through :func:`build_Mj`.  The A(X^{j+1}) of the
safeguard's residual test is reused as the next iteration's A(X^j).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .formats import FORMATS, DimensionTree, clamp_ranks, truncate
from .measurements import MeasurementEnsemble
from ._linalg import top_left_bases
from .tensors import frobenius_norm, matricize, tensorize, vec

__all__ = [
    "VARIANTS",
    "SolverConfig",
    "IterateState",
    "RecoveryResult",
    "RankProjector",
    "build_Mj",
    "tiht_run",
    "export_trace_csv",
]


VARIANTS = ("ctiht", "ntiht")


@dataclass
class SolverConfig:
    """Variant, format, target rank and stopping parameters for one run; HT runs use the balanced tree."""

    rank: object
    variant: str = "ntiht"
    format: str = "hosvd"
    max_iters: int = 5000
    conv_tol: float = 1e-4
    initial: np.ndarray | None = None
    keep_iterates: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.conv_tol > 0:
            raise ValueError("conv_tol must be positive")


@dataclass
class IterateState:
    """Per-iteration trace row."""

    iteration: int
    mu: float
    residual: float
    step_norm: float
    eps_ratio: float | None = None
    mu_fallback: bool = False
    X: np.ndarray | None = None
    retries: int = 0  # safeguard backoffs taken in this iteration (NTIHT only)


@dataclass
class RecoveryResult:
    """Final iterate plus the per-iteration trace and success bookkeeping."""

    tensor: np.ndarray
    iterations: int
    converged: bool
    trace: list[IterateState] = field(default_factory=list)
    final_error: float | None = None
    success: bool | None = None
    diverged: bool = False  # iterates left the representable range

    @property
    def stop_reason(self) -> str:
        """Why the run ended: "converged", "diverged" or "max_iters"."""
        if self.converged:
            return "converged"
        return "diverged" if self.diverged else "max_iters"

    @property
    def residuals(self) -> np.ndarray:
        return np.array([s.residual for s in self.trace])

    @property
    def step_norms(self) -> np.ndarray:
        return np.array([s.step_norm for s in self.trace])

    @property
    def mus(self) -> np.ndarray:
        return np.array([s.mu for s in self.trace])

    @property
    def eps_ratios(self) -> np.ndarray:
        return np.array(
            [np.nan if s.eps_ratio is None else s.eps_ratio for s in self.trace]
        )


class RankProjector:
    """Composition of row-space projections onto fixed matricization subspaces.

    Applied to tensors of the stored shape; idempotent, and the image consists
    of tensors whose format rank is at most the building rank when the bases
    come from a tensor of that exact rank.
    """

    def __init__(self, shape: tuple[int, ...], blocks):
        self.shape = tuple(shape)
        self.blocks = list(blocks)  # (modes, orthonormal basis) pairs, in order
        self._adjoints = [U.conj().T for _, U in self.blocks]

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z)
        if Z.shape != self.shape:
            raise ValueError(f"tensor of shape {Z.shape} does not match projector shape {self.shape}")
        for (modes, U), UH in zip(self.blocks, self._adjoints):
            Z = tensorize(U @ (UH @ matricize(Z, modes)), modes, self.shape)
        return Z


def build_Mj(fmt: str, X_j: np.ndarray, rank, tree: DimensionTree | None = None) -> RankProjector:
    """Projector M^j onto the rank-r format subspaces of the current iterate.

    Bases are the top left singular vectors of the iterate's defining
    matricizations (per mode for HOSVD, leading splits for TT, tree nodes for
    HT).  When an unfolding has fewer nonzero singular values than requested
    the basis is padded with the orthonormal complement the SVD returns.
    :func:`tiht_run` calls it only for the initial iterate; from the second
    iteration on it takes the same subspaces from the frames of the
    truncation that produced the iterate, ``RankProjector(shape, D.blocks())``.
    """
    X_j = np.asarray(X_j)
    sets, r = clamp_ranks(fmt, rank, X_j.shape, tree)
    bases = top_left_bases([matricize(X_j, S) for S in sets], r)
    return RankProjector(X_j.shape, zip(sets, bases))


def _mu_from_direction(A: MeasurementEnsemble, t: np.ndarray) -> tuple[float, bool]:
    tv = vec(t)
    num = float(np.vdot(tv, tv).real)
    At = A.apply(t)
    den = float(np.vdot(At, At).real)
    if den == 0.0:
        return 1.0, True
    return num / den, False


def tiht_run(
    A: MeasurementEnsemble,
    y: np.ndarray,
    config: SolverConfig,
    X_ref: np.ndarray | None = None,
    success_threshold: float | None = None,
) -> RecoveryResult:
    """Run CTIHT/NTIHT until the step norm drops below conv_tol or max_iters.

    When ``X_ref`` is given, the per-iteration ratio
    ||Y^j - X^{j+1}||_F / ||Y^j - X_ref||_F is recorded (diagnostic only) and
    the final error/success flag are filled in.
    """
    y = np.asarray(y)
    if y.shape != (A.m,):
        raise ValueError(f"measurement vector of shape {y.shape}, expected ({A.m},)")
    dtype = np.complex128 if A.field == "complex" else np.float64
    X = np.zeros(A.shape, dtype=dtype) if config.initial is None else np.asarray(config.initial, dtype=dtype)
    if X.shape != A.shape:
        raise ValueError(f"initial tensor shape {X.shape} does not match {A.shape}")

    ntiht = config.variant == "ntiht"
    trace: list[IterateState] = []
    converged = diverged = False
    AX = None  # A(X) when the safeguard has already measured X
    D = None  # decomposition of the truncation that produced X
    # overflow along a diverging trajectory is detected and recorded below, so
    # the intermediate inf/nan arithmetic is expected and not worth warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(config.max_iters):
            resid = y - (A.apply(X) if AX is None else AX)
            resid_norm = float(np.linalg.norm(resid))
            if not np.isfinite(resid_norm):
                diverged = True  # recorded outcome, not an error
                break
            g = A.adjoint(resid)
            if ntiht:
                if D is None:
                    projector = build_Mj(config.format, X, config.rank)
                else:
                    projector = RankProjector(X.shape, D.blocks())
                mu, fallback = _mu_from_direction(A, projector(g))
            else:
                mu, fallback = 1.0, False
            # one candidate pass per step size: CTIHT keeps the first; NTIHT
            # keeps it when it does not increase the residual, otherwise backs
            # the step off geometrically until it does, with the stability
            # bound mu <= ||dX||^2 / ||A(dX)||^2 of the changed-subspace test
            # as the floor
            retries = 0
            while True:
                Y = X + mu * g
                diverged = not np.all(np.isfinite(Y))
                if diverged:
                    break
                D = truncate(Y, config.format, config.rank)
                X_next = D.reconstruct()
                if not ntiht:
                    break
                AX = A.apply(X_next)
                if float(np.linalg.norm(y - AX)) <= resid_norm or retries == 60:
                    break
                omega, no_bound = _mu_from_direction(A, X_next - X)
                if no_bound or not np.isfinite(omega) or mu <= omega:
                    break
                mu = mu / 1.3 if mu / 1.3 > omega else 0.99 * omega
                retries += 1
            if diverged:
                break
            step_norm = frobenius_norm(X_next - X)
            eps_ratio = None
            if X_ref is not None:
                den = frobenius_norm(Y - X_ref)
                num = frobenius_norm(Y - X_next)
                if den > 0:
                    eps_ratio = num / den
                else:  # Y is X_ref: 0 when the truncation kept it, else unbounded
                    eps_ratio = 0.0 if num <= 1e-10 * max(frobenius_norm(Y), 1.0) else float("inf")
            X_kept = X.copy() if config.keep_iterates else None
            trace.append(IterateState(j, mu, resid_norm, step_norm, eps_ratio, fallback, X_kept, retries))
            X = X_next
            if step_norm < config.conv_tol:
                converged = True
                break

        final_error = success = None
        if X_ref is not None:
            diff_norm = frobenius_norm(X - X_ref)
            final_error = diff_norm if np.isfinite(diff_norm) else float("inf")
            if success_threshold is not None:
                success = bool(final_error < success_threshold)

    return RecoveryResult(X, len(trace), converged, trace, final_error, success, diverged)


def export_trace_csv(result: RecoveryResult, path) -> None:
    """Write the trace as CSV: iteration, residual, step_norm, mu, eps_ratio."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual", "step_norm", "mu", "eps_ratio"])
        for s in result.trace:
            writer.writerow(
                [
                    s.iteration,
                    repr(s.residual),
                    repr(s.step_norm),
                    repr(s.mu),
                    "" if s.eps_ratio is None else repr(s.eps_ratio),
                ]
            )

"""CTIHT and NTIHT iterations over any format/ensemble pair.

Starting from X^0 = 0, the iteration alternates a gradient step
``Y = X + mu * A*(y - A(X))`` with a format truncation ``X <- H_r(Y)``.
CTIHT uses mu = 1.  NTIHT starts from the normalized ratio
||M(A*(r))||_F^2 / ||A(M(A*(r)))||_2^2 built on the rank projector of the
current iterate and, in the spirit of the normalized IHT
line of algorithms, stabilizes it: a step is kept when it does not increase
the residual, otherwise it is backed off geometrically until it does, never
below the stability bound mu <= ||dX||_F^2 / ||A(dX)||_2^2 of the
changed-subspace test.  Stopping follows the experimental protocol: a
Frobenius step below ``conv_tol`` (converged) or ``max_iters`` iterations.
A run whose residual y - A(X^j) or gradient A*(y - A(X^j)) is not finite at
the top of an iteration, or whose candidate Y is not finite, ends as diverged.

Every NTIHT projector is built from the orthonormal frames (``blocks()``) of
a truncation: M^j for j >= 1 from those of X^j = H_r(Y^{j-1}), and M^0, since
X^0 = 0 spans nothing, from those of H_r(A*(y)), as normalized IHT starts
from the support of H_K(A*(y)).  Each candidate is measured once, where it is
made, for the safeguard's test and the next gradient.  X^0 = 0 has residual y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .formats import DimensionTree, check_rank, truncate
from .measurements import MeasurementEnsemble
from .tensors import check_choice, check_count, check_real, frobenius_norm, matricize, tensorize, vec

__all__ = [
    "VARIANTS",
    "SolverConfig",
    "IterateState",
    "RecoveryResult",
    "RankProjector",
    "build_Mj",
    "tiht_run",
]


VARIANTS = ("ctiht", "ntiht")


@dataclass(frozen=True)
class SolverConfig:
    """Variant, format, target rank and stopping parameters for one run from X^0 = 0; HT uses the balanced tree."""

    rank: int | tuple[int, ...]
    variant: str = "ntiht"
    format: str = "hosvd"
    max_iters: int = 5000
    conv_tol: float = 1e-4
    keep_iterates: bool = False

    def __post_init__(self):
        check_choice("variant", self.variant, VARIANTS)
        object.__setattr__(self, "rank", check_rank(self.format, self.rank))  # checks the format first
        check_count("max_iters", self.max_iters)
        object.__setattr__(self, "conv_tol", check_real("conv_tol", self.conv_tol))


@dataclass
class IterateState:
    """Per-iteration trace row; its index in the trace is the iteration j."""

    mu: float
    residual: float
    step_norm: float
    eps_ratio: float | None = None
    mu_fallback: bool = False
    X: np.ndarray | None = None
    retries: int = 0  # safeguard backoffs taken in this iteration (NTIHT only)


@dataclass
class RecoveryResult:
    """Final iterate, why the run stopped ("converged", "diverged" or
    "max_iters"), the per-iteration trace and success bookkeeping."""

    tensor: np.ndarray
    stop_reason: str
    trace: list[IterateState] = field(default_factory=list)
    final_error: float | None = None
    success: bool | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def residuals(self) -> np.ndarray:
        """Entry j is ||y - A(X^j)|| of the iterate before step j, so ``residuals[-1]`` is not ``tensor``'s."""
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

    def __call__(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z)
        if Z.shape != self.shape:
            raise ValueError(f"tensor of shape {Z.shape} does not match projector shape {self.shape}")
        for modes, U in self.blocks:
            Z = tensorize(U @ (U.conj().T @ matricize(Z, modes)), modes, self.shape)
        return Z


def build_Mj(fmt: str, Z: np.ndarray, rank, tree: DimensionTree | None = None) -> RankProjector:
    """Projector onto the rank-r format subspaces of ``Z``: the frames of H_r(Z).

    The bases are those of the matricizations H_r keeps (per mode for HOSVD,
    leading splits for TT, tree nodes for HT), taken from the truncation's
    ``blocks()``.  For Z of format rank at most r this is the projector M^j
    of the paper at X^j = Z.  :func:`tiht_run` builds M^0 from H_r(A*(y));
    every later M^j comes from the truncation that produced X^j.
    """
    return RankProjector(np.shape(Z), truncate(Z, fmt, rank, tree).blocks())


def _mu_from_direction(A: MeasurementEnsemble, t: np.ndarray) -> tuple[float, bool]:
    tv = vec(t)
    num = float(np.vdot(tv, tv).real)
    At = A.apply(t)
    den = float(np.vdot(At, At).real)
    if den == 0.0:
        return 1.0, True
    # an overflowed ||A(t)||^2 gives no step size: NaN, which ends the run as diverged
    return (num / den if math.isfinite(den) else math.nan), False


def tiht_run(
    A: MeasurementEnsemble,
    y: np.ndarray,
    config: SolverConfig,
    X_ref: np.ndarray | None = None,
    success_threshold: float | None = None,
) -> RecoveryResult:
    """Run CTIHT/NTIHT from the real X^0 = 0 until the step norm drops below conv_tol or max_iters.

    ``A`` is read only through ``shape``, ``m``, ``apply`` and ``adjoint``.

    When ``X_ref`` is given, the per-iteration ratio
    ||Y^j - X^{j+1}||_F / ||Y^j - X_ref||_F is recorded (diagnostic only) and
    the final error/success flag are filled in.
    """
    y = np.asarray(y)
    if y.shape != (A.m,):
        raise ValueError(f"measurement vector of shape {y.shape}, expected ({A.m},)")
    if X_ref is not None and np.shape(X_ref) != A.shape:
        raise ValueError(f"reference tensor of shape {np.shape(X_ref)}, expected {A.shape}")
    success_threshold = None if success_threshold is None else check_real("success_threshold", success_threshold)
    X = np.zeros(A.shape)

    ntiht = config.variant == "ntiht"
    trace: list[IterateState] = []
    stop = "max_iters"
    D = None  # decomposition of the truncation that produced X
    # overflow along a diverging trajectory is detected and recorded below, so
    # the intermediate inf/nan arithmetic is expected and not worth warnings
    with np.errstate(over="ignore", invalid="ignore"):
        resid = y.astype(np.result_type(y, X), copy=False)  # y - A(X^0), as X^0 = 0
        resid_norm = frobenius_norm(resid)
        for _ in range(config.max_iters):
            g = A.adjoint(resid)
            if not (math.isfinite(resid_norm) and np.isfinite(g).all()):
                stop = "diverged"  # recorded outcome, not an error
                break
            if ntiht:
                projector = build_Mj(config.format, g, config.rank) if D is None else RankProjector(X.shape, D.blocks())
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
                if not np.isfinite(Y).all():
                    stop = "diverged"
                    break
                D = truncate(Y, config.format, config.rank)
                X_next = D.reconstruct()
                next_resid = y - A.apply(X_next)
                next_norm = frobenius_norm(next_resid)
                if not ntiht or next_norm <= resid_norm or retries == 60:
                    break
                omega, no_bound = _mu_from_direction(A, X_next - X)
                if no_bound or not math.isfinite(omega) or mu <= omega:
                    break
                mu = mu / 1.3 if mu / 1.3 > omega else 0.99 * omega
                retries += 1
            if stop == "diverged":
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
            trace.append(IterateState(mu, resid_norm, step_norm, eps_ratio, fallback, X_kept, retries))
            X, resid, resid_norm = X_next, next_resid, next_norm
            if step_norm < config.conv_tol:
                stop = "converged"
                break

        final_error = success = None
        if X_ref is not None:
            diff_norm = frobenius_norm(X - X_ref)
            final_error = diff_norm if math.isfinite(diff_norm) else float("inf")
            if success_threshold is not None:
                success = bool(final_error < success_threshold)

    return RecoveryResult(X, stop, trace, final_error, success)


"""Theory-layer evaluators: empirical restricted-isometry estimates,
sample-complexity and covering-number bounds, convergence constants.

The unspecified universal constants in the bounds are reported as 1; users
should compare degrees-of-freedom terms, not absolute measurement counts.
Logarithms are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formats import FORMATS, random_rank_r_tensor
from .measurements import MeasurementEnsemble
from .solvers import VARIANTS
from .tensors import frobenius_norm

__all__ = [
    "TripEstimate",
    "trip_estimate",
    "SampleComplexityBound",
    "sample_complexity",
    "fourier_sample_complexity",
    "covering_bound",
    "ConvergenceConstants",
    "convergence_constants",
    "storage_count",
]


@dataclass(frozen=True)
class TripEstimate:
    """Monte-Carlo lower bound on the restricted isometry constant.

    ``deviations[i]`` is | ||A(X_i)||^2 - 1 | for the i-th random unit-norm
    rank-r tensor; ``delta_hat`` is their maximum.  Sampling the model set
    only certifies a lower bound on the true constant.
    """

    delta_hat: float
    n_samples: int
    rank: object
    deviations: np.ndarray


def trip_estimate(A: MeasurementEnsemble, fmt: str, rank, n_samples: int, seed: int = 0) -> TripEstimate:
    """Max isometry defect over seeded random unit-norm rank-r tensors.

    Per-sample seeds derive from the master seed, so a larger run shares its
    sample prefix with a smaller one.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    deviations = np.empty(n_samples)
    for i in range(n_samples):
        X = random_rank_r_tensor(A.shape, fmt, rank, [seed, i])
        AX = A.apply(X / frobenius_norm(X))
        deviations[i] = abs(float(np.vdot(AX, AX).real) - 1.0)
    return TripEstimate(
        delta_hat=float(np.max(deviations)),
        n_samples=n_samples,
        rank=rank,
        deviations=deviations,
    )


@dataclass(frozen=True)
class SampleComplexityBound:
    """Measurement-count bound (universal constant reported as 1) and its dof term."""

    bound: float
    dof_term: float


def _check_formula_args(fmt, d, n, r):
    if fmt not in FORMATS:
        raise ValueError(f"unknown tensor format {fmt!r}")
    if d < 1 or n < 1 or r < 1:
        raise ValueError("d, n, r must be positive")


def _dof(fmt: str, d: int, n: int, r: int) -> int:
    """Degrees of freedom at uniform n and r: r^d + d n r for HOSVD, (d-1) r^3 + d n r for TT and HT."""
    if fmt == "hosvd":
        return r**d + d * n * r
    return (d - 1) * r**3 + d * n * r


def sample_complexity(fmt: str, d: int, n: int, r: int, delta: float, fail_prob: float) -> SampleComplexityBound:
    """Subgaussian sample bound: delta^-2 max(dof-term, log(1/fail_prob)).

    dof-term: (r^d + d n r) log d for HOSVD, ((d-1) r^3 + d n r) log(d r)
    for TT and HT.
    """
    _check_formula_args(fmt, d, n, r)
    if not 0 < delta < 1 or not 0 < fail_prob < 1:
        raise ValueError("delta and fail_prob must lie in (0, 1)")
    dof = _dof(fmt, d, n, r) * math.log(d if fmt == "hosvd" else d * r)
    bound = delta**-2 * max(dof, math.log(1.0 / fail_prob))
    return SampleComplexityBound(bound=bound, dof_term=dof)


def fourier_sample_complexity(fmt: str, d: int, n: int, r: int, delta: float, eta: float) -> float:
    """Randomized-Fourier sample bound (constant 1):

    delta^-1 (1+eta) log^2(n^d) * max(delta^-1 (1+eta) log^2(n^d), f(n,d,r))
    with f = (r^d + d n r) log d for HOSVD and (d r^3 + d n r) log(d r) for
    TT and HT.
    """
    _check_formula_args(fmt, d, n, r)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if eta <= 0:
        raise ValueError("eta must be positive")
    log2 = math.log(float(n) ** d) ** 2
    base = (1.0 / delta) * (1.0 + eta) * log2
    if fmt == "hosvd":
        f = _dof(fmt, d, n, r) * math.log(d)
    else:
        f = (d * r**3 + d * n * r) * math.log(d * r)
    return base * max(base, f)


def covering_bound(fmt: str, d: int, n: int, r: int, eps: float) -> float:
    """Log covering number of the unit-norm rank-r model set.

    HOSVD: (r^d + d n r) log(3 (d+1) / eps).  TT/HT with a binary tree of
    d - 1 interior nodes at uniform rank: ((d-1) r^3 + d n r)
    log(3 (2d-1) sqrt(r) / eps).
    """
    _check_formula_args(fmt, d, n, r)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if fmt == "hosvd":
        base = 3.0 * (d + 1) / eps
    else:
        base = 3.0 * (2 * d - 1) * math.sqrt(r) / eps
    return _dof(fmt, d, n, r) * math.log(base)


@dataclass(frozen=True)
class ConvergenceConstants:
    """delta(a), eps(a), b(a) for a contraction target a, plus the error horizon."""

    variant: str
    a: float
    delta_of_a: float
    eps_of_a: float
    b_of_a: float
    error_horizon: float


def convergence_constants(variant: str, a: float, delta3r: float, opnorm: float) -> ConvergenceConstants:
    """Evaluate the convergence-theorem constants at the given parameters.

    delta(a) = a/4 (CTIHT) or a/(a+8) (NTIHT); eps(a) and b(a) follow the
    displayed formulas, and the error horizon is (1 - a + b) / (1 - a).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    if not 0 <= delta3r < 1:
        raise ValueError("delta3r must lie in [0, 1)")
    if not opnorm > 0:
        raise ValueError("opnorm must be positive")
    root = math.sqrt(1.0 + delta3r)
    if variant == "ctiht":
        delta_of_a = a / 4.0
        eps = a**2 / (17.0 * (1.0 + root * opnorm) ** 2)
        b = 2.0 * root + math.sqrt(4.0 * eps + 2.0 * eps**2) * opnorm
    else:
        delta_of_a = a / (a + 8.0)
        eps = (a**2 * (1.0 - delta3r) ** 2) / (
            17.0 * (1.0 - delta3r + root * opnorm) ** 2
        )
        b = (2.0 * root + math.sqrt(4.0 * eps + 2.0 * eps**2) * opnorm) / (1.0 - delta3r)
    return ConvergenceConstants(
        variant=variant,
        a=a,
        delta_of_a=delta_of_a,
        eps_of_a=eps,
        b_of_a=b,
        error_horizon=(1.0 - a + b) / (1.0 - a),
    )


def storage_count(fmt: str, d: int, n: int, r: int) -> int:
    """Exact parameter count of a rank-r representation at uniform n and r.

    HOSVD: r^d + d n r.  TT: sum r_{k-1} n r_k with boundary ranks pinned to
    1.  HT: one r x r x r transfer tensor per interior node (d - 1 of them
    for any binary tree over d modes) plus the d leaf frames.
    """
    _check_formula_args(fmt, d, n, r)
    if fmt != "hosvd" and d < 2:
        raise ValueError(f"{fmt.upper()} format needs order >= 2")
    if fmt == "tt":
        ranks = [1] + [r] * (d - 1) + [1]
        return sum(ranks[k] * n * ranks[k + 1] for k in range(d))
    return _dof(fmt, d, n, r)

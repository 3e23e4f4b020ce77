"""Theory-layer evaluators: empirical restricted-isometry estimates,
sample-complexity and covering-number bounds, convergence constants.

The unspecified universal constants in the bounds are reported as 1; users
should compare degrees-of-freedom terms, not absolute measurement counts.
Logarithms are natural throughout.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import astuple, dataclass, is_dataclass

import numpy as np

from .formats import FORMATS, random_rank_r_tensor
from .measurements import MeasurementEnsemble
from .solvers import VARIANTS
from .tensors import check_choice, check_count, check_real, frobenius_norm

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
    deviations: np.ndarray


def trip_estimate(A: MeasurementEnsemble, fmt: str, rank, n_samples: int, seed: int = 0) -> TripEstimate:
    """Max isometry defect over seeded random unit-norm rank-r tensors.

    Sample i is drawn from ``[seed, i]``, so a larger run shares its sample
    prefix with a smaller one.  numpy pads seed lists with zeros, so an
    ensemble drawn from ``seed`` itself would share sample 0's stream.
    """
    n_samples, seed = check_count("n_samples", n_samples), check_count("seed", seed, 0)
    deviations = np.empty(n_samples)
    for i in range(n_samples):
        X = random_rank_r_tensor(A.shape, fmt, rank, [seed, i])
        AX = A.apply(X / frobenius_norm(X))
        deviations[i] = abs(float(np.vdot(AX, AX).real) - 1.0)
    return TripEstimate(delta_hat=float(np.max(deviations)), n_samples=n_samples, deviations=deviations)


@dataclass(frozen=True)
class SampleComplexityBound:
    """Measurement-count bound (universal constant reported as 1) and its dof term."""

    bound: float
    dof_term: float


def _check_formula_args(fmt, d, n, r):
    check_choice("format", fmt, FORMATS)
    for name, value in (("d", d), ("n", n), ("r", r)):
        check_count(name, value)
    if fmt != "hosvd" and d < 2:
        raise ValueError(f"{fmt.upper()} format needs order >= 2")


def _in_float_range(*shown):
    """Wrap a formula: a real it returns past the float range is a ValueError naming it and its inputs ``shown``."""

    def wrap(formula):
        @functools.wraps(formula)
        def checked(*args, **kwargs):
            try:
                value = formula(*args, **kwargs)
                reals = astuple(value) if is_dataclass(value) else (value,)
                finite = all(math.isfinite(v) for v in reals if isinstance(v, float))
            except OverflowError:  # a float power, or an exact int such as r**d, too large for a float
                finite = False
            if not finite:
                given = inspect.signature(formula).bind(*args, **kwargs).arguments
                at = ", ".join(f"{name}={given[name]}" for name in shown)
                raise ValueError(f"{formula.__name__} leaves the float range at {at}")
            return value

        return checked

    return wrap


def _dof(fmt: str, d: int, n: int, r: int) -> int:
    """Degrees of freedom at uniform n and r: r^d + d n r for HOSVD, (d-1) r^3 + d n r for TT and HT."""
    if fmt == "hosvd":
        return r**d + d * n * r
    return (d - 1) * r**3 + d * n * r


def _float_dof(fmt: str, d: int, n: int, r: int) -> float:
    """``_dof`` as a float, or an OverflowError without building r^d when r^d alone is 2^1025 or more."""
    if fmt == "hosvd" and d * math.log2(r) >= 1025:
        raise OverflowError
    return float(_dof(fmt, d, n, r))


@_in_float_range("d", "n", "r")
def sample_complexity(fmt: str, d: int, n: int, r: int, delta: float, fail_prob: float) -> SampleComplexityBound:
    """Subgaussian sample bound: delta^-2 max(dof-term, log(1/fail_prob)).

    dof-term: (r^d + d n r) log d for HOSVD, ((d-1) r^3 + d n r) log(d r)
    for TT and HT.
    """
    _check_formula_args(fmt, d, n, r)
    delta, fail_prob = check_real("delta", delta, "(0, 1)"), check_real("fail_prob", fail_prob, "(0, 1)")
    dof = _float_dof(fmt, d, n, r) * math.log(d if fmt == "hosvd" else d * r)
    bound = delta**-2 * max(dof, math.log(1.0 / fail_prob))
    return SampleComplexityBound(bound=bound, dof_term=dof)


@_in_float_range("d", "n", "r")
def fourier_sample_complexity(fmt: str, d: int, n: int, r: int, delta: float, eta: float) -> float:
    """Randomized-Fourier sample bound (constant 1):

    delta^-1 (1+eta) log^2(n^d) * max(delta^-1 (1+eta) log^2(n^d), f(n,d,r))
    with f = (r^d + d n r) log d for HOSVD and (d r^3 + d n r) log(d r) for
    TT and HT.
    """
    _check_formula_args(fmt, d, n, r)
    delta, eta = check_real("delta", delta, "(0, 1)"), check_real("eta", eta)
    log2 = (d * math.log(n)) ** 2  # log(n^d) without forming n^d, which overflows a float at a large d
    base = (1.0 / delta) * (1.0 + eta) * log2
    if fmt == "hosvd":
        f = _float_dof(fmt, d, n, r) * math.log(d)
    else:
        f = (d * r**3 + d * n * r) * math.log(d * r)
    return base * max(base, f)


@_in_float_range("d", "n", "r")
def covering_bound(fmt: str, d: int, n: int, r: int, eps: float) -> float:
    """Log covering number of the unit-norm rank-r model set.

    HOSVD: (r^d + d n r) log(3 (d+1) / eps).  TT/HT with a binary tree of
    d - 1 interior nodes at uniform rank: ((d-1) r^3 + d n r)
    log(3 (2d-1) sqrt(r) / eps).
    """
    _check_formula_args(fmt, d, n, r)
    eps = check_real("eps", eps, "(0, 1]")
    if fmt == "hosvd":
        base = 3.0 * (d + 1) / eps
    else:
        base = 3.0 * (2 * d - 1) * math.sqrt(r) / eps
    return _float_dof(fmt, d, n, r) * math.log(base)


@dataclass(frozen=True)
class ConvergenceConstants:
    """delta(a), eps(a), b(a) for a contraction target a, plus the error horizon."""

    variant: str
    a: float
    delta_of_a: float
    eps_of_a: float
    b_of_a: float
    error_horizon: float


@_in_float_range("variant", "a", "delta3r", "opnorm")
def convergence_constants(variant: str, a: float, delta3r: float, opnorm: float) -> ConvergenceConstants:
    """Evaluate the convergence-theorem constants at the given parameters.

    delta(a) = a/4 (CTIHT) or a/(a+8) (NTIHT); eps(a) and b(a) follow the
    displayed formulas, and the error horizon is (1 - a + b) / (1 - a).
    """
    check_choice("variant", variant, VARIANTS)
    a, delta3r = check_real("a", a, "(0, 1)"), check_real("delta3r", delta3r, "[0, 1)")
    opnorm = check_real("opnorm", opnorm)
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
    1, i.e. n r for each end core and n r^2 for each of the d - 2 others.
    HT: one r x r x r transfer tensor per interior node (d - 1 of them for
    any binary tree over d modes) plus the d leaf frames.
    """
    _check_formula_args(fmt, d, n, r)
    if fmt == "tt":
        return 2 * n * r + (d - 2) * n * r * r
    return _dof(fmt, d, n, r)

import math

import numpy as np
import pytest

from oracles import contraction_factor, trip_prefix
from tiht.analysis import (
    convergence_constants,
    covering_bound,
    fourier_sample_complexity,
    sample_complexity,
    storage_count,
    trip_estimate,
)
from tiht.measurements import GaussianEnsemble, draw


def test_trip_identity_ensemble_is_exact_isometry():
    A = GaussianEnsemble(np.eye(64), (4, 4, 4))
    est = trip_estimate(A, "hosvd", (1, 1, 1), 50, seed=0)
    assert est.delta_hat <= 1e-12


def test_trip_undersampled_gaussian_large_defect():
    # m = 10 against N = 1000: severely undersampled, seeded value ~1.68
    A = draw("gaussian", (10, 10, 10), 10, seed=500)
    est = trip_estimate(A, "hosvd", (1, 1, 1), 500, seed=501)
    assert est.delta_hat > 0.5


def test_trip_oversampled_gaussian_small_defect():
    # m = 700 against N = 1000: seeded value ~0.165
    A = draw("gaussian", (10, 10, 10), 700, seed=502)
    est = trip_estimate(A, "hosvd", (1, 1, 1), 1000, seed=503)
    assert est.delta_hat < 0.5


def test_trip_deterministic_and_prefix_monotone():
    A = draw("gaussian", (5, 5, 5), 20, seed=1)
    e1 = trip_estimate(A, "hosvd", (1, 1, 1), 40, seed=2)
    e2 = trip_estimate(A, "hosvd", (1, 1, 1), 40, seed=2)
    assert np.array_equal(e1.deviations, e2.deviations)
    bigger = trip_estimate(A, "hosvd", (1, 1, 1), 80, seed=2)
    assert np.array_equal(bigger.deviations[:40], e1.deviations)
    prefixes = [trip_prefix(bigger, n) for n in range(1, 81)]
    assert all(b >= a for a, b in zip(prefixes, prefixes[1:]))
    assert trip_prefix(bigger, 40) == e1.delta_hat


def test_trip_measures_each_sample_once(monkeypatch):
    A = draw("gaussian", (5, 5, 5), 20, seed=1)
    apply, calls = A.apply, []
    monkeypatch.setattr(A, "apply", lambda X: calls.append(1) or apply(X))
    trip_estimate(A, "hosvd", (1, 1, 1), 40)
    assert len(calls) == 40


def test_trip_runs_for_tt_and_ht_models():
    A = draw("gaussian", (4, 4, 4, 4), 60, seed=3)
    for fmt, rank in (("tt", (2, 2, 2)), ("ht", 2)):
        est = trip_estimate(A, fmt, rank, 10, seed=4)
        assert est.delta_hat >= 0


def test_sample_complexity_hosvd_worked_example():
    out = sample_complexity("hosvd", 3, 10, 2, 0.5, 0.01)
    assert np.isclose(out.dof_term, 74.7056, rtol=5e-4)
    assert np.isclose(out.bound, 298.8225, rtol=5e-4)


def test_sample_complexity_tt_worked_example():
    out = sample_complexity("tt", 3, 10, 2, 0.5, 0.01)
    assert np.isclose(out.dof_term, 136.1737, rtol=5e-4)
    assert np.isclose(out.bound, 544.6949, rtol=5e-4)


def test_sample_complexity_rank_one_specialization():
    out = sample_complexity("hosvd", 4, 7, 1, 0.3, 0.1)
    assert np.isclose(out.dof_term, (1 + 4 * 7) * math.log(4), rtol=1e-12)


def test_sample_complexity_fail_prob_branch():
    out = sample_complexity("hosvd", 3, 2, 1, 0.5, 1e-60)
    assert out.bound == pytest.approx(4 * math.log(1e60))


def test_sample_complexity_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 20))
        r = int(rng.integers(1, 5))
        delta = float(rng.uniform(0.05, 0.95))
        for fmt in ("hosvd", "tt", "ht"):
            base = sample_complexity(fmt, d, n, r, delta, 0.01).bound
            assert sample_complexity(fmt, d, n + 1, r, delta, 0.01).bound >= base
            assert sample_complexity(fmt, d, n, r + 1, delta, 0.01).bound >= base
            assert sample_complexity(fmt, d, n, r, delta / 2, 0.01).bound >= base


def test_fourier_sample_complexity_worked_example():
    # log^2(10^3) = 47.717, base = 190.868, f = 34.055 -> base^2 = 36430.7
    val = fourier_sample_complexity("hosvd", 3, 10, 1, 0.5, 1.0)
    assert np.isclose(val, 36430.70, rtol=5e-4)
    assert np.isclose(val, 36436.0, rtol=1e-3)  # value displayed with coarser rounding


def test_fourier_f_term_tt_formula():
    d, n, r = 4, 6, 3
    val = fourier_sample_complexity("tt", d, n, r, 0.9, 0.5)
    log2 = math.log(float(n) ** d) ** 2
    base = (1 / 0.9) * 1.5 * log2
    f = (d * r**3 + d * n * r) * math.log(d * r)
    assert np.isclose(val, base * max(base, f), rtol=1e-12)


def test_fourier_monotone_in_eta():
    lo = fourier_sample_complexity("hosvd", 3, 10, 1, 0.5, 1.0)
    hi = fourier_sample_complexity("hosvd", 3, 10, 1, 0.5, 2.0)
    assert hi > lo


def test_covering_bound_hosvd_worked_example():
    val = covering_bound("hosvd", 3, 1, 1, 1.0)
    assert np.isclose(val, 4 * math.log(12), rtol=1e-12)
    assert np.isclose(val, 9.94, rtol=1e-3)


def test_covering_bound_ht_d4_exponent():
    n, r = 10, 2
    val = covering_bound("ht", 4, n, r, 1.0)
    exponent = 3 * r**3 + 4 * n * r
    assert np.isclose(val, exponent * math.log(3 * 7 * math.sqrt(r)), rtol=1e-12)


def test_covering_bound_monotone_in_eps():
    vals = [covering_bound("tt", 3, 5, 2, eps) for eps in (1.0, 0.5, 0.1, 0.01)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_convergence_constants_delta_of_a():
    assert convergence_constants("ctiht", 0.5, 0.0, 1.0).delta_of_a == 0.125
    assert np.isclose(
        convergence_constants("ntiht", 0.5, 0.0, 1.0).delta_of_a, 0.5 / 8.5, rtol=1e-12
    )


def test_convergence_constants_eps_worked_example():
    consts = convergence_constants("ctiht", 0.5, 0.1, 2.0)
    assert np.isclose(consts.eps_of_a, 1.5326e-3, rtol=5e-4)
    # independent straight-line evaluation
    manual = 0.5**2 / (17 * (1 + math.sqrt(1.1) * 2) ** 2)
    assert np.isclose(consts.eps_of_a, manual, rtol=1e-12)


def test_convergence_constants_b_and_horizon():
    for variant in ("ctiht", "ntiht"):
        consts = convergence_constants(variant, 0.3, 0.05, 3.0)
        assert consts.b_of_a > 0
        assert consts.eps_of_a > 0
        assert 0 < consts.delta_of_a < 1
        assert np.isclose(
            consts.error_horizon, (1 - 0.3 + consts.b_of_a) / (1 - 0.3), rtol=1e-12
        )


def test_convergence_constants_domain_errors():
    with pytest.raises(ValueError):
        convergence_constants("ctiht", 1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        convergence_constants("ctiht", 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        convergence_constants("ctiht", 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        convergence_constants("iht", 0.5, 0.0, 1.0)


def test_contraction_below_a_at_boundary():
    # proof-internal inequality, checked across a grid approaching delta(a)
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for opnorm in (0.5, 1.0, 2.0, 5.0, 20.0):
            for variant in ("ctiht", "ntiht"):
                delta = convergence_constants(variant, a, 0.0, opnorm).delta_of_a
                rho = contraction_factor(variant, a, delta * (1 - 1e-9), opnorm)
                assert rho < a


def test_storage_counts():
    assert storage_count("hosvd", 3, 10, 1) == 31
    assert storage_count("hosvd", 3, 10, 2) == 2**3 + 60
    assert storage_count("tt", 3, 10, 2) == 80
    assert storage_count("ht", 4, 10, 2) == 3 * 8 + 4 * 20
    with pytest.raises(ValueError):
        storage_count("cp", 3, 10, 1)

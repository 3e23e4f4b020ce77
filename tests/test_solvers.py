import numpy as np
import pytest

import tiht.solvers
from oracles import ntiht_step_size, probe_ranks
from tiht.experiments import generate_test_tensor, random_rank_r_tensor
from tiht.formats import DimensionTree, mode_sets, truncate
from tiht.measurements import GaussianEnsemble, draw
from tiht.solvers import (
    RankProjector,
    SolverConfig,
    build_Mj,
    export_trace_csv,
    tiht_run,
)
from tiht.tensors import frobenius_norm

SHAPE = (10, 10, 10)


def _identity_ensemble(shape=(4, 4, 4)):
    N = int(np.prod(shape))
    return GaussianEnsemble(np.eye(N), shape)


def test_identity_ensemble_one_step_recovery():
    A = _identity_ensemble()
    X0 = generate_test_tensor((4, 4, 4), (2, 2, 2), seed=0)
    y = A.apply(X0)
    res = tiht_run(A, y, SolverConfig(rank=(2, 2, 2), variant="ctiht"))
    assert res.converged
    assert res.iterations <= 2
    assert frobenius_norm(res.tensor - X0) <= 1e-10 * frobenius_norm(X0)


def test_ntiht_mu_is_one_on_identity_ensemble():
    A = _identity_ensemble()
    X0 = generate_test_tensor((4, 4, 4), (1, 1, 1), seed=1)
    y = A.apply(X0)
    X_j = generate_test_tensor((4, 4, 4), (1, 1, 1), seed=2)
    proj = build_Mj("hosvd", X_j, (1, 1, 1))
    mu, fallback = ntiht_step_size(A, X_j, y, proj)
    assert not fallback
    assert abs(mu - 1.0) <= 1e-12


def test_ctiht_and_ntiht_traces_bit_compatible_on_identity():
    A = _identity_ensemble()
    X0 = generate_test_tensor((4, 4, 4), (2, 2, 2), seed=3)
    y = A.apply(X0)
    res_c = tiht_run(A, y, SolverConfig(rank=(2, 2, 2), variant="ctiht", max_iters=5))
    res_n = tiht_run(A, y, SolverConfig(rank=(2, 2, 2), variant="ntiht", max_iters=5))
    assert res_c.iterations == res_n.iterations
    assert np.array_equal(res_c.residuals, res_n.residuals)
    assert np.array_equal(res_c.step_norms, res_n.step_norms)
    assert np.array_equal(res_n.mus, np.ones_like(res_n.mus))
    assert np.array_equal(res_c.tensor, res_n.tensor)


def test_ntiht_mu_scales_inverse_quadratically():
    rng = np.random.default_rng(4)
    shape = (4, 4, 4)
    base = draw("gaussian", shape, 20, seed=5)
    scaled = GaussianEnsemble(3.0 * base.matrix, shape)
    X0 = generate_test_tensor(shape, (1, 1, 1), seed=6)
    X_j = generate_test_tensor(shape, (1, 1, 1), seed=7)
    proj = build_Mj("hosvd", X_j, (1, 1, 1))
    mu1, _ = ntiht_step_size(base, X_j, base.apply(X0), proj)
    mu2, _ = ntiht_step_size(scaled, X_j, scaled.apply(X0), proj)
    assert np.isclose(mu2, mu1 / 9.0, rtol=1e-12)


def test_ntiht_mu_matches_independent_oracle_100_instances():
    # straight-line transcription of the displayed ratio, recomputed per piece
    shape = (5, 5, 5)
    for trial in range(100):
        A = draw("gaussian", shape, 30, seed=[90, trial])
        X0 = generate_test_tensor(shape, (2, 2, 2), seed=[91, trial])
        X_j = generate_test_tensor(shape, (2, 2, 2), seed=[92, trial])
        y = A.apply(X0)
        proj = build_Mj("hosvd", X_j, (2, 2, 2))
        mu, fallback = ntiht_step_size(A, X_j, y, proj)
        assert not fallback

        residual = y - A.apply(X_j)
        direction = proj(A.adjoint(residual))
        numerator = frobenius_norm(direction) ** 2
        denominator = float(np.linalg.norm(A.apply(direction)) ** 2)
        assert np.isclose(mu, numerator / denominator, rtol=1e-12)


def test_ntiht_zero_denominator_flagged():
    A = _identity_ensemble()
    X0 = generate_test_tensor((4, 4, 4), (1, 1, 1), seed=8)
    y = A.apply(X0)
    proj = build_Mj("hosvd", X0, (1, 1, 1))
    mu, fallback = ntiht_step_size(A, X0, y, proj)
    assert fallback and mu == 1.0
    res = tiht_run(
        A, y, SolverConfig(rank=(1, 1, 1), variant="ntiht", initial=X0), X_ref=X0
    )
    assert res.trace[0].mu_fallback
    assert res.converged and res.iterations == 1


def test_build_mj_idempotent_and_fixes_low_rank():
    rng = np.random.default_rng(9)
    tree = DimensionTree.balanced(4)
    cases = [
        ("hosvd", (2, 2, 2), (6, 6, 6), None),
        ("tt", (2, 2), (6, 6, 6), None),
        ("ht", 2, (4, 4, 4, 4), tree),
    ]
    for fmt, rank, shape, tr in cases:
        X_j = random_rank_r_tensor(shape, fmt, rank, np.random.default_rng([10, len(shape)]), tr)
        proj = build_Mj(fmt, X_j, rank, tr)
        Z = rng.standard_normal(shape)
        once = proj(Z)
        twice = proj(once)
        assert frobenius_norm(twice - once) <= 1e-10 * max(frobenius_norm(once), 1)
        assert frobenius_norm(proj(X_j) - X_j) <= 1e-10 * frobenius_norm(X_j)


def test_build_mj_matrix_case_is_two_sided_projection():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, 7))
    r = 2
    proj = build_Mj("hosvd", X, (r, r))
    U, _, Vt = np.linalg.svd(X)
    PU = U[:, :r] @ U[:, :r].T
    PV = Vt[:r].T @ Vt[:r]
    Z = rng.standard_normal((6, 7))
    assert np.allclose(proj(Z), PU @ Z @ PV, atol=1e-12)


def test_build_mj_padded_on_rank_deficient_iterate():
    X = np.zeros((4, 4, 4))
    X[0, 0, 0] = 1.0  # rank (1,1,1) but projector asked for rank 2
    proj = build_Mj("hosvd", X, (2, 2, 2))
    for _, U in proj.blocks:
        assert U.shape == (4, 2)
        assert np.linalg.norm(U.T @ U - np.eye(2)) < 1e-12


def test_exact_recovery_well_conditioned_full_measurements():
    shape = (5, 5, 5)
    N = 125
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    # ||0.002 G|| is about 0.05 for a 125 x 125 Gaussian G, so A* A stays
    # within ~0.1 of the identity and mu = 1 contracts
    conditioned = np.eye(N) + 0.002 * rng.standard_normal((N, N))
    for M in (Q, conditioned):
        A = GaussianEnsemble(M, shape)
        X0 = generate_test_tensor(shape, (2, 2, 2), seed=13)
        y = A.apply(X0)
        for variant in ("ctiht", "ntiht"):
            cfg = SolverConfig(rank=(2, 2, 2), variant=variant, max_iters=50, conv_tol=1e-9)
            res = tiht_run(A, y, cfg, X_ref=X0)
            assert res.final_error < 1e-6
            assert res.iterations <= 50


def test_gaussian_recovery_success_and_rank_of_result():
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=14)
    A = draw("gaussian", SHAPE, 80, seed=15)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ntiht"),
        X_ref=X0, success_threshold=1e-3,
    )
    assert res.success
    assert probe_ranks(res.tensor, "hosvd") == (1, 1, 1)
    assert all(mu > 0 for mu in res.mus)


def test_noise_floor_bounded_on_seeded_fixture():
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=77)
    A = draw("gaussian", SHAPE, 300, seed=78)
    rng = np.random.default_rng(79)
    e = rng.standard_normal(300)
    e *= 1e-3 / np.linalg.norm(e)
    y = A.apply(X0) + e
    for variant in ("ntiht", "ctiht"):
        res = tiht_run(A, y, SolverConfig(rank=(1, 1, 1), variant=variant), X_ref=X0)
        # measured K is about 0.36 on this fixture; pin a comfortable ceiling
        assert res.final_error <= 1.0 * np.linalg.norm(e)


def test_eps_condition_monitor_on_successful_run():
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=81)
    A = draw("gaussian", SHAPE, 80, seed=82)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ntiht"),
        X_ref=X0, success_threshold=1e-3,
    )
    assert res.success
    vals = res.eps_ratios - 1.0
    assert np.mean(vals < 0.1) >= 0.9


def test_eps_ratio_first_step_identity_nonpositive():
    A = _identity_ensemble()
    X0 = generate_test_tensor((4, 4, 4), (1, 1, 1), seed=16)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ctiht"), X_ref=X0
    )
    # Y^0 equals the truth exactly, truncation keeps it: ratio 0
    assert res.trace[0].eps_ratio == 0.0


def test_iteration_purity_replay_from_trace():
    from tiht.formats import truncate

    X0 = generate_test_tensor((6, 6, 6), (2, 2, 2), seed=18)
    A = draw("gaussian", (6, 6, 6), 90, seed=19)
    y = A.apply(X0)
    cfg = SolverConfig(rank=(2, 2, 2), variant="ctiht", max_iters=6, keep_iterates=True)
    res = tiht_run(A, y, cfg)
    for j in range(res.iterations - 1):
        X_j = res.trace[j].X
        Y = X_j + 1.0 * A.adjoint(y - A.apply(X_j))
        X_next = truncate(Y, "hosvd", (2, 2, 2)).reconstruct()
        assert np.array_equal(X_next, res.trace[j + 1].X)


def test_solver_runs_all_formats():
    tree = DimensionTree.balanced(3)
    for fmt, rank in (("hosvd", (1, 1, 1)), ("tt", (1, 1)), ("ht", 1)):
        X0 = random_rank_r_tensor((6, 6, 6), fmt, rank, np.random.default_rng([20, fmt == "tt"]), tree)
        A = draw("gaussian", (6, 6, 6), 70, seed=21)
        cfg = SolverConfig(rank=rank, format=fmt, variant="ntiht")
        res = tiht_run(A, A.apply(X0), cfg, X_ref=X0, success_threshold=1e-3)
        assert res.success, fmt


def test_fourier_recovery_complex_path():
    X0 = generate_test_tensor((6, 6, 6), (1, 1, 1), seed=22)
    A = draw("fourier", (6, 6, 6), 50, seed=23)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ntiht"),
        X_ref=X0, success_threshold=1e-3,
    )
    assert res.success
    assert np.iscomplexobj(res.tensor)
    assert frobenius_norm(np.imag(res.tensor)) <= 1e-3


def test_divergence_recorded_not_raised():
    # A = 2I makes the CTIHT error map e -> -3e, a clean geometric blow-up
    shape = (3, 3, 3)
    A = GaussianEnsemble(2.0 * np.eye(27), shape)
    X0 = generate_test_tensor(shape, (1, 1, 1), seed=27)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ctiht"),
        X_ref=X0, success_threshold=1e-3,
    )
    assert res.diverged
    assert res.success is False
    assert res.final_error == float("inf")
    assert not res.converged


def test_config_validation_and_shape_errors():
    with pytest.raises(ValueError):
        SolverConfig(rank=(1, 1, 1), variant="tiht")
    with pytest.raises(ValueError):
        SolverConfig(rank=(1, 1, 1), max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(rank=(1, 1, 1), conv_tol=0.0)
    A = draw("gaussian", (3, 3, 3), 10, seed=24)
    with pytest.raises(ValueError):
        tiht_run(A, np.zeros(11), SolverConfig(rank=(1, 1, 1)))
    with pytest.raises(ValueError):
        tiht_run(
            A,
            np.zeros(10),
            SolverConfig(rank=(1, 1, 1), initial=np.zeros((2, 2, 2))),
        )


def test_trace_csv_export(tmp_path):
    X0 = generate_test_tensor((4, 4, 4), (1, 1, 1), seed=25)
    A = draw("gaussian", (4, 4, 4), 30, seed=26)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), max_iters=20), X_ref=X0
    )
    out = tmp_path / "trace.csv"
    export_trace_csv(res, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,residual,step_norm,mu,eps_ratio"
    assert len(lines) == res.iterations + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == res.trace[0].residual
    assert float(first[4]) == res.trace[0].eps_ratio


def test_stop_reason_names_each_ending():
    A = _identity_ensemble()
    X0 = generate_test_tensor((4, 4, 4), (2, 2, 2), seed=0)
    res = tiht_run(A, A.apply(X0), SolverConfig(rank=(2, 2, 2), variant="ctiht"))
    assert res.stop_reason == "converged"

    A = GaussianEnsemble(2.0 * np.eye(27), (3, 3, 3))
    X0 = generate_test_tensor((3, 3, 3), (1, 1, 1), seed=27)
    res = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ctiht"))
    assert res.stop_reason == "diverged"

    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=14)
    A = draw("gaussian", SHAPE, 80, seed=15)
    res = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1), max_iters=2))
    assert res.iterations == 2 and res.stop_reason == "max_iters"


def test_retries_count_the_safeguard_truncations(monkeypatch):
    calls = []

    def counting_truncate(*args, **kwargs):
        calls.append(1)
        return truncate(*args, **kwargs)

    monkeypatch.setattr(tiht.solvers, "truncate", counting_truncate)
    # 3% measurements: far below the transition, so the safeguard backs off
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=30)
    A = draw("gaussian", SHAPE, 30, seed=31)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), max_iters=60),
        X_ref=X0, success_threshold=1e-3,
    )
    assert not res.success
    retries = sum(s.retries for s in res.trace)
    assert retries > 0
    assert retries == len(calls) - res.iterations

    calls.clear()
    res = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ctiht", max_iters=20))
    assert all(s.retries == 0 for s in res.trace) and len(calls) == res.iterations


def _factored_cases():
    for field in ("real", "complex"):
        yield field, "hosvd", (5, 5, 5), (2, 3, 2), None
        yield field, "hosvd", (4, 5, 3, 6), (2, 3, 2, 3), None
        yield field, "tt", (5, 5, 5), (2, 3), None
        yield field, "tt", (4, 5, 3, 6), (2, 3, 2), None
        yield field, "ht", (5, 5, 5), 2, None
        yield field, "ht", (4, 5, 3, 6), 2, DimensionTree.balanced(4)
        yield field, "ht", (4, 5, 3, 6), 2, DimensionTree.degenerate(4)
    for field in ("real", "complex"):
        # clamped to the attainable (1, 3, 1): both bases of the prefix (0, 1) are 9 x 3
        yield field, "tt", (3, 3, 3, 3), (1, 9, 1), None


@pytest.mark.parametrize("field, fmt, shape, rank, tree", list(_factored_cases()))
def test_factored_projector_matches_build_mj(field, fmt, shape, rank, tree):
    rng = np.random.default_rng([40, len(shape), len(fmt)])

    def draw_tensor():
        Z = rng.standard_normal(shape)
        return Z + 1j * rng.standard_normal(shape) if field == "complex" else Z

    D = truncate(draw_tensor(), fmt, rank, tree)
    X = D.reconstruct()
    dense = build_Mj(fmt, X, rank, tree)
    blocks = D.blocks()
    assert [S for S, _ in blocks] == mode_sets(fmt, len(shape), tree)
    assert [U.shape for _, U in blocks] == [U.shape for _, U in dense.blocks]
    for _, U in blocks:
        assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])) <= 1e-12
    Z = draw_tensor()
    expected = dense(Z)
    got = RankProjector(shape, blocks)(Z)
    assert frobenius_norm(got - expected) <= 1e-12 * frobenius_norm(expected)


class _CountingGaussian(GaussianEnsemble):
    applies = 0

    def apply(self, X):
        self.applies += 1
        return super().apply(X)


def test_ntiht_reuses_the_safeguard_measurement_of_the_iterate():
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=14)
    base = draw("gaussian", SHAPE, 200, seed=15)
    y = base.apply(X0)
    for variant in ("ntiht", "ctiht"):
        A = _CountingGaussian(base.matrix, SHAPE)
        res = tiht_run(A, y, SolverConfig(rank=(1, 1, 1), variant=variant), X_ref=X0, success_threshold=1e-3)
        assert res.success and not any(s.retries for s in res.trace)
        # NTIHT: A(X^0), then per iteration the step-size denominator and the
        # residual test, whose A(X^{j+1}) is the next iteration's A(X^j)
        expected = 2 * res.iterations + 1 if variant == "ntiht" else res.iterations
        assert A.applies == expected, variant

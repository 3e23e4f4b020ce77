import numpy as np
import pytest

import tiht.solvers
from oracles import RealFourierModel, degenerate_tree, ntiht_step_size, probe_ranks
from tiht.experiments import (
    ExperimentSpec,
    emit_trace,
    generate_test_tensor,
    measurements_for,
    random_rank_r_tensor,
)
from tiht.formats import DimensionTree, mode_sets, truncate
from tiht.measurements import GaussianEnsemble, draw
from tiht.solvers import (
    RankProjector,
    SolverConfig,
    build_Mj,
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
    # from X^0 = 0 with y = 0 the first projected gradient is 0, so A of it is too
    zero = np.zeros((4, 4, 4))
    res = tiht_run(A, A.apply(zero), SolverConfig(rank=(1, 1, 1), variant="ntiht"), X_ref=zero)
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


def _dense_block_projector(shape, modes, U):
    """N x N matrix of Z -> U U^H Z_(S) on vec(Z), indexed by F-order arithmetic alone."""
    index = np.unravel_index(np.arange(np.prod(shape)), shape, order="F")
    rest = [k for k in range(len(shape)) if k not in modes]
    row = np.ravel_multi_index([index[k] for k in modes], [shape[k] for k in modes], order="F")
    col = np.ravel_multi_index([index[k] for k in rest], [shape[k] for k in rest], order="F")
    return (U @ U.conj().T)[np.ix_(row, row)] * (col[:, None] == col[None, :])


@pytest.mark.parametrize("fmt, rank", [("hosvd", (2, 1, 3, 2)), ("tt", (2, 3, 2)), ("ht", 2)])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_rank_projector_is_the_product_of_dense_block_projectors(fmt, rank, field):
    rng = np.random.default_rng(16)
    shape = (4, 5, 3, 6)

    def draw_tensor():
        Z = rng.standard_normal(shape)
        return Z + 1j * rng.standard_normal(shape) if field == "complex" else Z

    blocks = truncate(draw_tensor(), fmt, rank).blocks()
    P = np.eye(np.prod(shape))
    for modes, U in blocks:
        P = _dense_block_projector(shape, modes, U) @ P
    Z = draw_tensor()
    expected = (P @ Z.reshape(-1, order="F")).reshape(shape, order="F")
    got = RankProjector(shape, blocks)(Z)
    assert frobenius_norm(got - expected) <= 1e-12 * frobenius_norm(expected)


@pytest.mark.parametrize(
    "fmt, shape, rank, tree",
    [
        ("hosvd", (4, 5, 3, 6), (2, 3, 2, 3), None),
        ("tt", (4, 5, 3, 6), (2, 3, 2), None),
        ("ht", (4, 5, 3, 6), 2, DimensionTree.balanced(4)),
        ("ht", (4, 5, 3, 6), 2, degenerate_tree(4)),  # (0, (1, (2, 3)))
        ("ht", (3, 4, 2, 3, 2, 3), 2, DimensionTree((((0, 1), 2), (3, (4, 5))))),
    ],
)
def test_complex_projector_is_idempotent_and_self_adjoint(fmt, shape, rank, tree):
    # M^j of every Fourier run acts on complex gradients: it is an orthogonal projector there too
    rng = np.random.default_rng([41, len(shape), len(fmt)])

    def draw_tensor():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    proj = RankProjector(shape, truncate(draw_tensor(), fmt, rank, tree).blocks())
    Z, W = draw_tensor(), draw_tensor()
    once = proj(Z)
    assert frobenius_norm(proj(once) - once) <= 1e-12 * frobenius_norm(once)
    assert abs(np.vdot(once, W) - np.vdot(Z, proj(W))) <= 1e-12 * frobenius_norm(Z) * frobenius_norm(W)


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
    with pytest.raises(ValueError, match=r"shape \(7, 6\) does not match projector shape \(6, 7\)"):
        proj(Z.T)


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


def test_real_fourier_model_recovers_the_cell_where_complex_iterates_fail():
    # criterion 3's nbar-6 cell, where the complex search recovers no trial: real iterates
    # have half the parameters, 56 against 112, for the same 2m = 120 real measurements
    spec = ExperimentSpec(shape=SHAPE, rank=(2, 2, 2), ensemble="fourier", variant="ntiht", grid=(6,), seed=7)
    for trial in range(10):
        X0, A, y = measurements_for(spec, 6, trial)
        result = tiht_run(RealFourierModel(A), y, spec, X_ref=X0, success_threshold=spec.threshold)
        assert result.success and result.tensor.dtype == np.float64, trial


class _Map:
    """Only the map contract, ``shape``, ``m``, ``apply`` and ``adjoint``, taken from ``A``."""

    def __init__(self, A):
        self.shape, self.m, self.apply, self.adjoint = A.shape, A.m, A.apply, A.adjoint


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_map_is_its_shape_m_apply_and_adjoint():
    # tiht_run reads nothing else of a map: the contract alone gives the ensemble's
    # own run bit for bit, and the adjoint alone fixes the dtype of the iterates
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=30)
    cfg = SolverConfig(rank=(1, 1, 1), max_iters=20)  # 3% measurements: the safeguard backs off
    for ensemble, dtype in (("gaussian", np.float64), ("fourier", np.complex128)):
        A = draw(ensemble, SHAPE, 30, seed=31)
        y = A.apply(X0)
        got, expected = tiht_run(_Map(A), y, cfg, X_ref=X0), tiht_run(A, y, cfg, X_ref=X0)
        assert got.tensor.dtype == dtype and any(s.retries for s in got.trace), ensemble
        for name in ("tensor", "mus", "residuals", "step_norms"):
            assert _same_bits(getattr(got, name), getattr(expected, name)), (ensemble, name)
        assert [s.retries for s in got.trace] == [s.retries for s in expected.trace], ensemble
        assert got.stop_reason == expected.stop_reason, ensemble
    # A is the Fourier map: a real adjoint alone keeps the iterates real
    assert tiht_run(RealFourierModel(A), y, cfg, X_ref=X0).tensor.dtype == np.float64


def test_divergence_recorded_not_raised():
    # A = 2I makes the CTIHT error map e -> -3e, a clean geometric blow-up
    shape = (3, 3, 3)
    A = GaussianEnsemble(2.0 * np.eye(27), shape)
    X0 = generate_test_tensor(shape, (1, 1, 1), seed=27)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant="ctiht"),
        X_ref=X0, success_threshold=1e-3,
    )
    assert res.stop_reason == "diverged"
    assert res.success is False
    assert res.final_error == float("inf")
    assert not res.converged


def test_overflowing_gradient_ends_the_run_as_diverged():
    # y = 1e100 X0 is finite, but A*(y) = 1e350 X0 overflows: both variants
    # stop at the top of the first iteration, before any truncation
    shape = (3, 3, 3)
    A = GaussianEnsemble(1e250 * np.eye(27), shape)
    X0 = 1e-150 * generate_test_tensor(shape, (1, 1, 1), seed=27)
    for variant in ("ntiht", "ctiht"):  # a warning fails the test: the suite makes warnings errors
        res = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1), variant=variant), X_ref=X0)
        assert res.stop_reason == "diverged", variant
        assert res.iterations == 0 and not np.any(res.tensor), variant


def test_overflowing_first_residual_ends_the_run_as_diverged():
    # y = 1e200 X0 is finite, but ||y||^2 overflows: the residual of X^0 = 0
    # is not finite, so both variants stop before any gradient is taken
    shape = (3, 3, 3)
    A = _identity_ensemble(shape)
    y = A.apply(1e200 * generate_test_tensor(shape, (1, 1, 1), seed=27))
    assert np.all(np.isfinite(y))
    for variant in ("ntiht", "ctiht"):  # a warning fails the test: the suite makes warnings errors
        res = tiht_run(A, y, SolverConfig(rank=(1, 1, 1), variant=variant))
        assert res.stop_reason == "diverged", variant
        assert res.iterations == 0 and not np.any(res.tensor), variant


def test_overflowing_candidate_ends_the_run_as_diverged():
    # y = 1e60 X0 and g = A*(y) = 1e160 X0 are finite, so the run passes the
    # top of its first iteration; ||M^0(g)||^2 overflows, so mu = inf / inf is
    # nan and the first candidate Y = mu g is not finite
    shape = (3, 3, 3)
    A = GaussianEnsemble(1e100 * np.eye(27), shape)
    X0 = 1e-40 * generate_test_tensor(shape, (1, 1, 1), seed=27)
    y = A.apply(X0)
    assert np.isfinite(np.linalg.norm(y)) and np.all(np.isfinite(A.adjoint(y)))
    res = tiht_run(A, y, SolverConfig(rank=(1, 1, 1)), X_ref=X0)  # a warning fails the test
    assert res.stop_reason == "diverged"
    assert res.iterations == 0 and not np.any(res.tensor)


def test_overflowing_step_denominator_ends_the_run_as_diverged():
    # ||M^0(g)||^2 ~ 1e280 is finite but ||A(M^0(g))||^2 ~ 1e440 overflows:
    # mu = num / inf = 0 took a zero step and stopped as "converged" at X = 0
    shape = (3, 3, 3)
    A = GaussianEnsemble(1e80 * np.eye(27), shape)
    X0 = 1e-20 * generate_test_tensor(shape, (1, 1, 1), seed=27)
    res = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1)), X_ref=X0)  # a warning fails the test
    assert res.stop_reason == "diverged"
    assert res.iterations == 0 and not np.any(res.tensor)


def test_first_projector_is_not_a_choice_of_coordinates():
    # M^0 of the zero iterate kept only entry (0, 0, 0) at rank (1, 1, 1); a
    # completion map that misses it measured M^0(A*(y)) as 0 and fell back to mu = 1
    A = draw("completion", SHAPE, 200, seed=32)
    assert 0 not in A.omega
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=33)
    res = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1), max_iters=1))
    assert not res.trace[0].mu_fallback


@pytest.mark.parametrize("fmt, rank", [("hosvd", (1, 1, 1)), ("tt", (1, 1)), ("ht", 1)])
@pytest.mark.parametrize("ensemble", ["gaussian", "fourier"])
def test_first_step_size_is_normalized_on_the_truncation_of_the_gradient(fmt, rank, ensemble):
    X0 = random_rank_r_tensor((6, 6, 6), fmt, rank, [34, len(fmt)])
    A = draw(ensemble, (6, 6, 6), 100, seed=35)
    y = A.apply(X0)
    res = tiht_run(A, y, SolverConfig(rank=rank, format=fmt, max_iters=1))
    assert res.trace[0].retries == 0  # so the recorded mu is the normalized one
    g = A.adjoint(y)
    mu, fallback = tiht.solvers._mu_from_direction(A, build_Mj(fmt, g, rank)(g))
    assert res.trace[0].mu == mu and not fallback


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


def test_reference_tensor_of_another_shape_is_rejected():
    # numpy would broadcast either reference and report errors against it
    X0 = generate_test_tensor((4, 4, 4), (1, 1, 1), seed=25)
    A = draw("gaussian", (4, 4, 4), 30, seed=26)
    for X_ref in (np.zeros((4, 1, 1)), 5.0):
        with pytest.raises(ValueError, match="reference tensor"):
            tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1), max_iters=20), X_ref=X_ref)


def test_trace_csv_export(tmp_path):
    X0 = generate_test_tensor((4, 4, 4), (1, 1, 1), seed=25)
    A = draw("gaussian", (4, 4, 4), 30, seed=26)
    res = tiht_run(
        A, A.apply(X0), SolverConfig(rank=(1, 1, 1), max_iters=20), X_ref=X0
    )
    out = tmp_path / "trace.csv"
    emit_trace(res, out)
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
    # one truncation per iteration and retry, plus H_r(A*(y)) for M^0
    assert len(calls) == res.iterations + retries + 1

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
        yield field, "ht", (4, 5, 3, 6), 2, degenerate_tree(4)
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


class _CountingEnsemble:
    """``A`` with a count of its ``apply`` calls."""

    def __init__(self, A):
        self.A, self.shape, self.m = A, A.shape, A.m
        self.applies = 0

    def apply(self, X):
        self.applies += 1
        return self.A.apply(X)

    def adjoint(self, y):
        return self.A.adjoint(y)


# above the transition for rank (1, 1, 1) on SHAPE, with no safeguard retry
_RECOVERING = (("gaussian", 200), ("fourier", 200), ("completion", 500))


def test_ntiht_reuses_the_safeguard_measurement_of_the_iterate():
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=14)
    for ensemble, m in _RECOVERING:
        base = draw(ensemble, SHAPE, m, seed=15)
        y = base.apply(X0)
        threshold = 2.5e-3 if ensemble == "completion" else 1e-3
        for variant in ("ntiht", "ctiht"):
            A = _CountingEnsemble(base)
            res = tiht_run(A, y, SolverConfig(rank=(1, 1, 1), variant=variant), X_ref=X0, success_threshold=threshold)
            assert res.success and not any(s.retries for s in res.trace), (ensemble, variant)
            # X^0 = 0 is not measured (its residual is y); each candidate is
            # measured once, and NTIHT adds the step-size denominator per iteration
            expected = 2 * res.iterations if variant == "ntiht" else res.iterations
            assert A.applies == expected, (ensemble, variant)


def test_each_trace_residual_is_the_residual_of_its_iterate():
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=14)
    runs = [(draw(ensemble, SHAPE, m, seed=15), X0, v) for ensemble, m in _RECOVERING for v in ("ctiht", "ntiht")]
    # last, 3% measurements: below the transition, so the safeguard backs off
    runs.append((draw("gaussian", SHAPE, 30, seed=31), generate_test_tensor(SHAPE, (1, 1, 1), seed=30), "ntiht"))
    for A, X_true, variant in runs:
        y = A.apply(X_true)
        res = tiht_run(A, y, SolverConfig(rank=(1, 1, 1), variant=variant, max_iters=60, keep_iterates=True))
        assert res.iterations > 1
        for j, s in enumerate(res.trace):
            assert s.residual == frobenius_norm(y - A.apply(s.X)), (type(A).__name__, variant, j)
    assert any(s.retries for s in res.trace)


def test_integer_and_single_precision_measurements_give_the_double_trace():
    X0 = generate_test_tensor(SHAPE, (1, 1, 1), seed=14)
    for ensemble, m in _RECOVERING:
        A = draw(ensemble, SHAPE, m, seed=15)
        y = A.apply(X0).real  # real data, so that integer and float32 copies exist for every ensemble
        for y_in in (np.round(1e3 * y).astype(np.int64), y.astype(np.float32)):
            cfg = SolverConfig(rank=(1, 1, 1), max_iters=20)
            got, expected = tiht_run(A, y_in, cfg), tiht_run(A, y_in.astype(np.float64), cfg)
            label = (ensemble, y_in.dtype.name)
            assert got.iterations == expected.iterations, label
            for name in ("residuals", "mus", "step_norms"):
                assert np.array_equal(getattr(got, name), getattr(expected, name)), (label, name)
            assert np.array_equal(got.tensor, expected.tensor), label

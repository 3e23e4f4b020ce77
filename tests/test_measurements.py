import math

import numpy as np
import pytest

from oracles import dense_fourier_matrix, inner_product
from tiht.measurements import CompletionEnsemble, FourierEnsemble, GaussianEnsemble, draw
from tiht.tensors import frobenius_norm, vec

SMALL_SHAPES = [(2,), (5,), (8,), (2, 2), (3, 4), (8, 8), (2, 2, 2), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2), (2,) * 6]


def _random_tensor(rng, shape, complex_field=False):
    X = rng.standard_normal(shape)
    if complex_field:
        X = X + 1j * rng.standard_normal(shape)
    return X


def test_apply_zero_tensor():
    for kind in ("gaussian", "fourier", "completion"):
        A = draw(kind, (3, 4, 5), 7, seed=0)
        y = A.apply(np.zeros((3, 4, 5)))
        assert y.shape == (7,)
        assert not np.any(y)


def test_identity_matrix_ensemble_is_vec():
    shape = (2, 3, 2)
    A = GaussianEnsemble(np.eye(12), shape)
    rng = np.random.default_rng(1)
    X = rng.standard_normal(shape)
    assert np.array_equal(A.apply(X), vec(X))
    assert np.array_equal(A.adjoint(A.apply(X)), X)
    with pytest.raises(ValueError, match=r"matrix shape \(12, 12\) does not match \(12, 18\)"):
        GaussianEnsemble(np.eye(12), (2, 3, 3))


def test_linearity():
    rng = np.random.default_rng(2)
    for kind in ("gaussian", "fourier", "completion"):
        A = draw(kind, (4, 4, 4), 20, seed=3)
        X, Y = rng.standard_normal((2, 4, 4, 4))
        a, b = 1.7, -0.3
        lhs = A.apply(a * X + b * Y)
        rhs = a * A.apply(X) + b * A.apply(Y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1)


def test_adjoint_identity_200_pairs_all_ensembles():
    # every map is C-linear with its adjoint (the Gaussian matrix.T is its conjugate
    # transpose), so the identity holds on real and on complex data; the first pass
    # takes complex data for Fourier only, the second the other field for each map
    rng = np.random.default_rng(4)
    shape = (3, 4, 5)
    m = 17
    maps = {kind: draw(kind, shape, m, seed=5) for kind in ("gaussian", "fourier", "completion")}
    for swap in (False, True):
        for kind, A in maps.items():
            complex_field = (kind == "fourier") != swap
            for _ in range(200):
                X = _random_tensor(rng, shape, complex_field)
                y = _random_tensor(rng, (m,), complex_field)
                lhs = np.vdot(A.apply(X), y)
                rhs = inner_product(X, A.adjoint(y)) if complex_field else np.vdot(X, A.adjoint(y))
                scale = frobenius_norm(X) * np.linalg.norm(y)
                assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0), (kind, complex_field)


def test_adjoint_identity_with_an_integer_vector():
    # an integer y is promoted like any other: the completion adjoint once kept y's dtype and truncated
    rng = np.random.default_rng(21)
    X = rng.standard_normal((3, 3, 3))
    y = np.arange(1, 11)
    for kind in ("gaussian", "fourier", "completion"):
        A = draw(kind, (3, 3, 3), 10, seed=22)
        assert np.array_equal(A.adjoint(y), A.adjoint(y.astype(np.float64)))
        assert abs(np.vdot(A.apply(X), y) - np.vdot(X, A.adjoint(y))) <= 1e-12 * frobenius_norm(X) * np.linalg.norm(y)


def test_fourier_and_completion_ensembles_draw_from_their_seed():
    # the Fourier map takes its signs first and then its sample set
    rng = np.random.default_rng(30)
    signs = rng.integers(0, 2, size=(3, 4)).astype(np.float64) * 2.0 - 1.0
    A = FourierEnsemble((3, 4), 5, 30)
    assert np.array_equal(A.signs, signs)
    assert np.array_equal(A.omega, rng.choice(12, size=5, replace=False))
    B = CompletionEnsemble((3, 4), 5, 31)
    assert np.array_equal(B.omega, np.random.default_rng(31).choice(12, size=5, replace=False))
    with pytest.raises(ValueError, match="exceeds"):
        CompletionEnsemble((3, 3, 3), 28, 0)


def test_completion_adjoint_scatters():
    shape = (3, 3)
    A = draw("completion", shape, 4, seed=6)
    y = np.arange(1.0, 5.0)
    T = A.adjoint(y)
    flat = vec(T)
    scale = math.sqrt(9 / 4)
    assert np.allclose(flat[A.omega], scale * y)
    mask = np.ones(9, dtype=bool)
    mask[A.omega] = False
    assert not flat[mask].any()


def test_completion_restricted_isometry_exact():
    shape = (4, 5, 3)
    N = 60
    A = draw("completion", shape, 11, seed=7)
    rng = np.random.default_rng(8)
    X = rng.standard_normal(shape)
    sampled = vec(X)[A.omega]
    assert np.isclose(
        float(np.vdot(A.apply(X), A.apply(X)).real),
        N / 11 * float(np.sum(sampled**2)),
        rtol=1e-14,
    )


def test_fourier_matches_dense_oracle_on_small_shapes():
    # oracle: rows of (1/sqrt(m)) R_Omega F D with F the explicit DFT kernel
    rng = np.random.default_rng(9)
    for shape in SMALL_SHAPES:
        N = int(np.prod(shape))
        m = max(1, N // 2)
        A = draw("fourier", shape, m, seed=10)
        dense = dense_fourier_matrix(A)
        for _ in range(3):
            X = _random_tensor(rng, shape, complex_field=True)
            gap = np.max(np.abs(A.apply(X) - dense @ vec(X)))
            assert gap <= 1e-12 * max(frobenius_norm(X), 1)
            y = _random_tensor(rng, (m,), complex_field=True)
            gap = np.max(np.abs(vec(A.adjoint(y)) - dense.conj().T @ y))
            assert gap <= 1e-12 * max(np.linalg.norm(y), 1)


def test_fourier_dense_oracle_is_dft_kernel():
    # spot-check the oracle itself against the scalar formula on a 2x2 grid
    A = draw("fourier", (2, 2), 4, seed=11)
    dense = dense_fourier_matrix(A)
    eps = vec(A.signs)
    for row_pos, row_flat in enumerate(A.omega):
        j = np.unravel_index(row_flat, (2, 2), order="F")
        for col in range(4):
            k = np.unravel_index(col, (2, 2), order="F")
            expected = np.exp(-2j * np.pi * (j[0] * k[0] / 2 + j[1] * k[1] / 2))
            expected *= eps[col] / math.sqrt(4)
            assert abs(dense[row_pos, col] - expected) < 1e-12


def test_fourier_factorization_composition():
    shape = (4, 4, 4)
    A = draw("fourier", shape, 30, seed=12)
    rng = np.random.default_rng(13)
    X = rng.standard_normal(shape)
    manual = vec(np.fft.fftn(A.signs * X))[A.omega] / math.sqrt(30)
    assert np.allclose(A.apply(X), manual, rtol=0, atol=1e-14)


def test_fourier_energy_preserved_on_average():
    shape = (4, 4, 4)
    N = 64
    A = draw("fourier", shape, N // 2, seed=14)
    rng = np.random.default_rng(15)
    vals = []
    for _ in range(500):
        X = rng.standard_normal(shape)
        X /= frobenius_norm(X)
        vals.append(float(np.vdot(A.apply(X), A.apply(X)).real))
    assert 0.8 <= float(np.mean(vals)) <= 1.2


def test_gaussian_entry_variance():
    m, shape = 20, (10, 10, 10)
    A = draw("gaussian", shape, m, seed=16)
    sample_var = float(np.var(A.matrix))
    assert A.matrix.size >= 10_000
    assert abs(sample_var - 1 / m) <= 0.2 / m


def test_draw_determinism_and_spec_roundtrip():
    for kind in ("gaussian", "fourier", "completion"):
        A1 = draw(kind, (3, 4), 5, seed=17)
        A2 = draw(kind, (3, 4), 5, seed=17)
        rng = np.random.default_rng(18)
        X = rng.standard_normal((3, 4))
        assert np.array_equal(A1.apply(X), A2.apply(X))


def test_sampling_without_replacement():
    A = draw("fourier", (3, 3), 9, seed=19)
    assert sorted(A.omega.tolist()) == list(range(9))
    B = draw("completion", (5, 4), 20, seed=20)
    assert sorted(B.omega.tolist()) == list(range(20))


def test_draw_argument_errors():
    with pytest.raises(ValueError):
        draw("fourier", (2, 2), 5, seed=0)  # m > N
    with pytest.raises(ValueError):
        draw("completion", (2, 2), 0, seed=0)
    with pytest.raises(ValueError):
        draw("sparse", (2, 2), 2, seed=0)
    A = draw("gaussian", (2, 2), 3, seed=0)
    with pytest.raises(ValueError):
        A.apply(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        A.adjoint(np.zeros(4))


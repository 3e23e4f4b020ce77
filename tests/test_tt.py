import math

import numpy as np
import pytest

from tiht.experiments import random_rank_r_tensor
from tiht.formats import probe_ranks, tt_truncate
from tiht.tensors import frobenius_norm, matricize


def test_exact_tt_rank_roundtrip():
    for seed in range(5):
        rng = np.random.default_rng([40, seed])
        X = random_rank_r_tensor((4, 5, 6), "tt", (2, 3), rng)
        D = tt_truncate(X, (2, 3))
        assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)
        assert D.ranks <= (2, 3)


def test_d2_reduces_to_matrix_svd_truncation():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((6, 8))
    s = np.linalg.svd(X, compute_uv=False)
    for r in (1, 2, 4):
        D = tt_truncate(X, (r,))
        err = frobenius_norm(X - D.reconstruct())
        expected = math.sqrt(float(np.sum(s[r:] ** 2)))
        assert abs(err - expected) <= 1e-10


def test_core_shapes_and_left_orthogonality():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((4, 5, 6, 3))
    D = tt_truncate(X, (2, 3, 2))
    G1, G2, G3, G4 = D.cores
    assert G1.shape == (4, 2)
    assert G2.shape == (2, 5, 3)
    assert G3.shape == (3, 6, 2)
    assert G4.shape == (2, 3)
    assert np.linalg.norm(G1.T @ G1 - np.eye(2)) < 1e-10
    for G in (G2, G3):
        M = matricize(G, (0, 1))
        assert np.linalg.norm(M.T @ M - np.eye(M.shape[1])) < 1e-10


def test_hand_built_rank_one_entry_products():
    # cores a (2x1), b (1x2x1), c (1x2): X(i,j,k) = a_i b_j c_k
    a = np.array([2.0, 3.0])
    b = np.array([5.0, 7.0])
    c = np.array([11.0, 13.0])
    X = np.einsum("i,j,k->ijk", a, b, c)
    D = tt_truncate(X, (1, 1))
    R = D.reconstruct()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert np.isclose(R[i, j, k], a[i] * b[j] * c[k])


def test_reconstruction_entries_match_matrix_products():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((3, 4, 5))
    D = tt_truncate(X, (3, 4))
    R = D.reconstruct()
    G1, G2, G3 = D.cores
    for idx in [(0, 0, 0), (2, 3, 4), (1, 2, 3)]:
        i, j, k = idx
        entry = G1[i] @ G2[:, j, :] @ G3[:, k]
        assert np.isclose(R[idx], entry)


def test_quasi_optimality_sqrt_dm1_on_seeded_trials():
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng([44, seed])
        X = rng.standard_normal((4, 4, 4))
        err_hr = frobenius_norm(X - tt_truncate(X, (2, 2)).reconstruct())
        Z = random_rank_r_tensor((4, 4, 4), "tt", (2, 2), np.random.default_rng([45, seed]))
        err_z = frobenius_norm(X - Z)
        if err_hr > math.sqrt(2) * err_z + 1e-10:
            violations += 1
    assert violations == 0


def test_error_contractive_in_rank():
    for seed in range(20):
        rng = np.random.default_rng([46, seed])
        X = rng.standard_normal((4, 4, 4))
        chain = [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4)]
        errors = [frobenius_norm(X - tt_truncate(X, r).reconstruct()) for r in chain]
        for bigger, smaller in zip(errors[1:], errors[:-1]):
            assert bigger <= smaller + 1e-12


def test_tt_rank_probe():
    rng = np.random.default_rng(47)
    X = random_rank_r_tensor((4, 5, 6), "tt", (2, 3), rng)
    assert probe_ranks(X, "tt") == (2, 3)
    u, v, w = rng.standard_normal(4), rng.standard_normal(5), rng.standard_normal(6)
    assert probe_ranks(np.einsum("i,j,k->ijk", u, v, w), "tt") == (1, 1)


def test_rank_validation():
    X = np.random.default_rng(48).standard_normal((3, 4, 5))
    with pytest.raises(ValueError):
        tt_truncate(X, (2, 2, 2))
    with pytest.raises(ValueError):
        tt_truncate(X, (0, 2))
    with pytest.raises(ValueError):
        tt_truncate(np.zeros(4), (1,))


def test_draw_is_made_at_the_clamped_ranks():
    # (9, 9) clamps to (3, 3) on a 3 x 3 x 3 tensor, and the draw uses that
    for seed in range(3):
        X = random_rank_r_tensor((3, 3, 3), "tt", (9, 9), [51, seed])
        assert np.array_equal(X, random_rank_r_tensor((3, 3, 3), "tt", (3, 3), [51, seed]))


def test_clamping_to_split_dimensions():
    rng = np.random.default_rng(49)
    X = rng.standard_normal((2, 3, 2))
    D = tt_truncate(X, (50, 50))
    assert D.ranks <= (2, 6)
    assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)

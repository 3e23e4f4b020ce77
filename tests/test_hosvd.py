import math

import numpy as np
import pytest

from oracles import DegenerateTensorError, hosvd_ranks, inner_product, probe_ranks
from tiht.formats import truncate
from tiht.experiments import generate_test_tensor
from tiht.tensors import frobenius_norm


def _diag_weight_tensor():
    # e1 x e1 x e1 + 2 e2 x e2 x e2 on a 3x3x3 grid
    X = np.zeros((3, 3, 3))
    X[0, 0, 0] = 1.0
    X[1, 1, 1] = 2.0
    return X


def test_decompose_rank_one_tensor():
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 1.0, 1.0])
    w = np.array([2.0, 0.0])
    X = np.einsum("i,j,k->ijk", u, v, w)
    D = truncate(X, "hosvd", probe_ranks(X, "hosvd"))
    assert hosvd_ranks(D) == (1, 1, 1)
    weight = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    assert np.isclose(abs(D.core[0, 0, 0]), weight)
    for U, ref in zip(D.factors, (u, v, w)):
        direction = U[:, 0]
        ref = ref / np.linalg.norm(ref)
        assert min(np.linalg.norm(direction - ref), np.linalg.norm(direction + ref)) < 1e-12


def test_decompose_diagonal_example_ranks_and_slice_norms():
    X = _diag_weight_tensor()
    D = truncate(X, "hosvd", probe_ranks(X, "hosvd"))
    assert hosvd_ranks(D) == (2, 2, 2)
    # mode-k subtensor norms of the core are the ordered singular values (2, 1)
    for k in range(3):
        norms = [
            np.linalg.norm(np.take(D.core, p, axis=k)) for p in range(D.core.shape[k])
        ]
        assert np.allclose(norms, [2.0, 1.0])


def test_decompose_reconstructs_random_tensor():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 4, 4))
    D = truncate(X, "hosvd", probe_ranks(X, "hosvd"))
    assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_decompose_invariants():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 5, 6))
    D = truncate(X, "hosvd", probe_ranks(X, "hosvd"))
    C = D.core
    for k, U in enumerate(D.factors):
        gram = U.T @ U
        assert np.linalg.norm(gram - np.eye(U.shape[1])) < 1e-10
        norms = [np.linalg.norm(np.take(C, p, axis=k)) for p in range(C.shape[k])]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        for p in range(C.shape[k]):
            for q in range(p + 1, C.shape[k]):
                ip = inner_product(np.take(C, p, axis=k), np.take(C, q, axis=k))
                assert abs(ip) <= 1e-8 * frobenius_norm(C) ** 2


def test_decompose_zero_tensor_degenerate():
    X = np.zeros((2, 2, 2))
    with pytest.raises(DegenerateTensorError):
        truncate(X, "hosvd", probe_ranks(X, "hosvd"))
    with pytest.raises(DegenerateTensorError):
        probe_ranks(np.zeros((2, 2)), "hosvd")


def test_truncate_fixes_exact_rank_tensors():
    for seed in range(5):
        X = generate_test_tensor((6, 5, 4), (2, 2, 2), seed=seed)
        D = truncate(X, "hosvd", (2, 2, 2))
        assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_truncate_diagonal_example_keeps_heavy_term():
    D = truncate(_diag_weight_tensor(), "hosvd", (1, 1, 1))
    R = D.reconstruct()
    expected = np.zeros((3, 3, 3))
    expected[1, 1, 1] = 2.0
    assert frobenius_norm(R - expected) < 1e-12
    assert np.isclose(frobenius_norm(_diag_weight_tensor() - R), 1.0)


def test_truncate_output_rank_bounded():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 5, 5))
    D = truncate(X, "hosvd", (2, 3, 1))
    assert probe_ranks(D.reconstruct(), "hosvd") <= (2, 3, 1)


def test_truncate_clamps_oversized_ranks():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((2, 3, 4))
    D = truncate(X, "hosvd", (9, 9, 9))
    assert hosvd_ranks(D) == (2, 3, 4)
    assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_quasi_optimality_sqrt_d_on_seeded_trials():
    # against random rank-r competitors: error(H_r) <= sqrt(3) * error(Z)
    r = (2, 2, 2)
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng([21, seed])
        X = rng.standard_normal((5, 5, 5))
        err_hr = frobenius_norm(X - truncate(X, "hosvd", r).reconstruct())
        Z = generate_test_tensor((5, 5, 5), r, seed=[22, seed])
        err_z = frobenius_norm(X - Z)
        if err_hr > math.sqrt(3) * err_z + 1e-10:
            violations += 1
    assert violations == 0


def test_error_contractive_in_rank():
    for seed in range(20):
        rng = np.random.default_rng([23, seed])
        X = rng.standard_normal((5, 5, 5))
        chain = [(1, 1, 1), (1, 2, 2), (2, 2, 2), (3, 3, 3), (4, 4, 4)]
        errors = [
            frobenius_norm(X - truncate(X, "hosvd", r).reconstruct()) for r in chain
        ]
        for bigger, smaller in zip(errors[1:], errors[:-1]):
            assert bigger <= smaller + 1e-12


def test_rank_of_separable_and_generic_sum():
    u, v, w = (np.random.default_rng([30, i]).standard_normal(6) for i in range(3))
    X = np.einsum("i,j,k->ijk", u, v, w)
    assert probe_ranks(X, "hosvd") == (1, 1, 1)
    u2, v2, w2 = (np.random.default_rng([31, i]).standard_normal(6) for i in range(3))
    Y = X + np.einsum("i,j,k->ijk", u2, v2, w2)
    assert probe_ranks(Y, "hosvd") == (2, 2, 2)


def test_storage_matches_parameter_count():
    # a rank-r HOSVD of an n-cube stores r^d + sum n r scalars
    X = generate_test_tensor((10, 10, 10), (2, 2, 2), seed=3)
    D = truncate(X, "hosvd", (2, 2, 2))
    stored = D.core.size + sum(U.size for U in D.factors)
    assert stored == 2**3 + 3 * 10 * 2


def test_complex_truncation_roundtrip():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    D = truncate(X, "hosvd", probe_ranks(X, "hosvd"))
    assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)
    for U in D.factors:
        assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1])) < 1e-10

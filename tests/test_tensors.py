import numpy as np
import pytest

from oracles import inner_product, unvec
from tiht.tensors import (
    as_tensor,
    check_shape,
    frobenius_norm,
    matricize,
    mode_product,
    tensorize,
    vec,
)


def test_check_shape_rejects_bad_extents():
    with pytest.raises(ValueError):
        check_shape(())
    with pytest.raises(ValueError):
        check_shape((3, 0, 2))


def test_as_tensor_field_rules():
    X = as_tensor([[1, 2], [3, 4]])
    assert X.dtype == np.float64


def test_matricize_shape_arithmetic():
    X = np.zeros((2, 3, 4))
    assert matricize(X, (0,)).shape == (2, 12)
    assert matricize(X, (1,)).shape == (3, 8)
    assert matricize(X, (0, 2)).shape == (8, 3)


def test_matricize_hand_enumeration_2x2x2():
    # X(i,j,k) = 100 i + 10 j + k with 1-based indices; columns of the
    # mode-1 matricization are (j,k) pairs with j fastest:
    # (1,1), (2,1), (1,2), (2,2).
    X = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                X[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    M = matricize(X, (0,))
    assert M[0].tolist() == [111.0, 121.0, 112.0, 122.0]
    assert M[1].tolist() == [211.0, 221.0, 212.0, 222.0]
    # row index group of a two-mode set: first listed mode fastest
    M2 = matricize(X, (0, 1))
    assert M2[:, 0].tolist() == [111.0, 211.0, 121.0, 221.0]


def test_matricize_tensorize_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        shape = tuple(int(n) for n in rng.integers(1, 5, size=d))
        X = rng.standard_normal(shape)
        n_subsets = 2**d
        for mask in range(1, n_subsets):
            S = tuple(k for k in range(d) if mask >> k & 1)
            M = matricize(X, S)
            back = tensorize(M, S, shape)
            assert np.array_equal(back, X)


def test_vec_unvec_roundtrip_and_first_index_fastest():
    X = np.arange(6, dtype=float).reshape(2, 3)
    v = vec(X)
    assert v.tolist() == [X[0, 0], X[1, 0], X[0, 1], X[1, 1], X[0, 2], X[1, 2]]
    assert np.array_equal(unvec(v, (2, 3)), X)


def test_matricize_errors():
    X = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        matricize(X, ())
    with pytest.raises(ValueError):
        matricize(X, (0, 0))
    with pytest.raises(ValueError):
        matricize(X, (2, 1))
    with pytest.raises(ValueError):
        matricize(X, (3,))
    with pytest.raises(ValueError):
        tensorize(np.zeros((2, 12)), (1,), (2, 3, 4))
    with pytest.raises(ValueError):
        tensorize(np.zeros((1, 24)), (), (2, 3, 4))


def test_tensorize_zero_matrix():
    Z = tensorize(np.zeros((3, 8)), (1,), (2, 3, 4))
    assert Z.shape == (2, 3, 4)
    assert not Z.any()


def test_mode_product_identity():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 4, 5))
    for k in range(3):
        Y = mode_product(X, np.eye(X.shape[k]), k)
        assert np.allclose(Y, X, rtol=0, atol=0)


def test_mode_product_all_ones_contraction():
    X = np.ones((2, 2, 2))
    Y = mode_product(X, np.ones((1, 2)), 0)
    assert Y.shape == (1, 2, 2)
    assert np.allclose(Y, 2.0)


def test_mode_product_commutation_distinct_modes():
    rng = np.random.default_rng(1)
    for _ in range(25):
        X = rng.standard_normal((3, 4, 5))
        A = rng.standard_normal((6, 3))
        B = rng.standard_normal((2, 5))
        left = mode_product(mode_product(X, A, 0), B, 2)
        right = mode_product(mode_product(X, B, 2), A, 0)
        assert np.linalg.norm(left - right) <= 1e-12 * max(np.linalg.norm(left), 1)


def test_mode_product_composition_same_mode():
    rng = np.random.default_rng(2)
    for _ in range(25):
        X = rng.standard_normal((3, 4, 5))
        B = rng.standard_normal((6, 4))
        C = rng.standard_normal((2, 6))
        left = mode_product(mode_product(X, B, 1), C, 1)
        right = mode_product(X, C @ B, 1)
        assert np.linalg.norm(left - right) <= 1e-12 * max(np.linalg.norm(left), 1)


def test_mode_product_norm_preserved_by_unitary():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 5, 6))
    for k in range(3):
        Q, _ = np.linalg.qr(rng.standard_normal((X.shape[k], X.shape[k])))
        Y = mode_product(X, Q, k)
        assert abs(frobenius_norm(Y) - frobenius_norm(X)) <= 1e-12 * frobenius_norm(X)


def test_mode_product_matches_matricized_form():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 4, 5))
    A = rng.standard_normal((7, 4))
    Y = mode_product(X, A, 1)
    lhs = matricize(Y, (1,))
    rhs = A @ matricize(X, (1,))
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_mode_product_dimension_error():
    with pytest.raises(ValueError):
        mode_product(np.zeros((2, 3)), np.zeros((4, 4)), 1)
    with pytest.raises(ValueError):
        mode_product(np.zeros((2, 3)), np.zeros((4, 3)), 2)


def test_inner_product_hand_case():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert inner_product(X, Y) == 5.0


def test_inner_product_is_squared_norm():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 3, 3))
    assert np.isclose(inner_product(X, X), frobenius_norm(X) ** 2)


def test_inner_product_orthogonal_axis_tensors():
    X = np.zeros((2, 2))
    Y = np.zeros((2, 2))
    X[0, 0] = 1.0
    Y[1, 1] = 1.0
    assert inner_product(X, Y) == 0.0


def test_inner_product_conjugates_first_argument():
    X = np.array([1.0 + 1.0j])
    Y = np.array([2.0 + 0.0j])
    assert inner_product(X, Y) == (1 - 1j) * 2


def test_inner_product_errors():
    with pytest.raises(ValueError):
        inner_product(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        inner_product(np.zeros(2), np.zeros(2, dtype=complex))

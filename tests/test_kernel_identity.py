"""The truncation path's kernels against the forms they replaced, bit for bit.

The references below are the earlier implementations: one SVD and a Python
column loop per basis, ``tensordot`` plus ``moveaxis`` per mode product, the
recursive dimension-tree walks of the HT draw and the HT node frames with
``np.kron``, the ``tensordot`` chain of a TT reconstruction, one full SVD
per mode of the HOSVD draw, the measurement maps through ``vec``/``unvec``,
the Gaussian matrix as a new quotient by sqrt(m) and ``np.linalg.norm``.
The kernels must agree with them under ``np.array_equal``, not within a
tolerance, so that seeded traces stay identical.
"""

import math

import numpy as np
import pytest

from oracles import degenerate_tree, unvec
from tiht._linalg import fix_svd_signs, signed_svd, top_left_bases
from tiht.experiments import random_rank_r_tensor
from tiht.formats import (
    DimensionTree,
    HTDecomposition,
    clamp_ranks,
    mode_sets,
    truncate,
)
from tiht.formats.hosvd import hosvd_random
from tiht.measurements import draw
from tiht.tensors import frobenius_norm, matricize, mode_product, vec


def _loop_fix_svd_signs(U, SVt=None):
    U = U.copy()
    SVt = None if SVt is None else SVt.copy()
    for k in range(U.shape[1]):
        col = U[:, k]
        pivot = col[np.argmax(np.abs(col))]
        if pivot == 0:
            continue
        phase = pivot / abs(pivot)
        U[:, k] *= np.conj(phase)
        if SVt is not None:
            SVt[k, :] *= phase
    return U if SVt is None else (U, SVt)


def _loop_top_left_vectors(M, r):
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    return _loop_fix_svd_signs(U[:, : min(r, *M.shape)])


def _random(rng, shape, field):
    X = rng.standard_normal(shape)
    return X + 1j * rng.standard_normal(shape) if field == "complex" else X


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mode_product_is_tensordot_bit_for_bit(field):
    rng = np.random.default_rng(7)
    X = _random(rng, (4, 5, 3, 6), field)
    for k in range(X.ndim):
        for J in (1, 2, X.shape[k], 7):
            A = _random(rng, (J, X.shape[k]), field)
            expected = np.moveaxis(np.tensordot(X, A, ([k], [1])), -1, k)
            assert np.array_equal(mode_product(X, A, k), expected), (k, J)


def test_fix_svd_signs_is_the_column_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(20):
        U, _, _ = np.linalg.svd(_random(rng, (10, 100), "complex"), full_matrices=False)
        for r in (1, 2, 10):
            assert np.array_equal(fix_svd_signs(U[:, :r]), _loop_fix_svd_signs(U[:, :r]))
    U[:, 1] = 0
    fixed = fix_svd_signs(U)
    assert np.array_equal(fixed, _loop_fix_svd_signs(U))
    assert not np.any(fixed[:, 1])  # a zero column has no phase to fix


@pytest.mark.parametrize("field", ["real", "complex"])
def test_signed_svd_is_the_column_loop_bit_for_bit(field):
    # the shapes of TT-SVD's flattenings, and the 1 x 1 and one-row edge cases
    rng = np.random.default_rng(9)
    for shape in ((10, 100), (100, 10), (20, 10), (1, 5), (5, 1), (1, 1)):
        for _ in range(10):
            M = _random(rng, shape, field)
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            U_ref, Vt_ref = _loop_fix_svd_signs(U, Vt)
            U_new, s_new, Vt_new = signed_svd(M)
            assert np.array_equal(U_new, U_ref) and np.array_equal(s_new, s), shape
            assert np.array_equal(Vt_new, Vt_ref), shape


@pytest.mark.parametrize("shape", [(3, 10, 100), (3, 1, 1), (2, 1, 4)])
def test_fix_svd_signs_on_a_stack_is_the_loop_per_matrix(shape):
    # a stack of 1 x 1 complex bases pins the in-place rounding of one-entry loops
    M = _random(np.random.default_rng(10), shape, "complex")
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    U_new, Vt_new = fix_svd_signs(U, Vt)
    for i in range(shape[0]):
        U_ref, Vt_ref = _loop_fix_svd_signs(U[i], Vt[i])
        assert np.array_equal(U_new[i], U_ref) and np.array_equal(Vt_new[i], Vt_ref), i


@pytest.mark.parametrize("shape", [(10, 10, 10), (4, 5, 3, 6)])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_hosvd_truncate_is_one_svd_per_mode_bit_for_bit(shape, field):
    rng = np.random.default_rng(11)
    X = _random(rng, shape, field)
    ranks = (2, 1, 3, 2)[: len(shape)]  # unequal ranks within one group of equal unfoldings
    D = truncate(X, "hosvd", ranks)
    core = X
    for k, (U, r) in enumerate(zip(D.factors, ranks)):
        M = matricize(X, (k,))
        assert np.array_equal(U, _loop_top_left_vectors(M, r)), k
        assert np.array_equal(U, top_left_bases([M], [r])[0]), k
        core = np.moveaxis(np.tensordot(core, U.conj().T, ([k], [1])), -1, k)
    assert np.array_equal(D.core, core)


def _recursive_ht_draw(shape, rank, seed, tree):
    ranks = {tree.root: 1, **dict(zip(*clamp_ranks("ht", rank, shape, tree)))}
    rng = np.random.default_rng(seed)
    frames, transfers = {}, {}

    def draw_node(node):  # depth first, left son first
        if len(node) == 1:
            frames[node[0]], _ = np.linalg.qr(rng.standard_normal((shape[node[0]], ranks[node])))
            return
        s1, s2 = tree.children[node]
        draw_node(s1)
        draw_node(s2)
        r = (ranks[node], ranks[s1], ranks[s2])
        transfers[node] = rng.standard_normal((r[0], r[1] * r[2])).reshape(r, order="F")

    draw_node(tree.root)
    return HTDecomposition(tree, transfers, frames, shape)


def _node_frame(D, node, known):
    if node not in known:
        if len(node) == 1:
            known[node] = D.frames[node[0]]
        else:
            s1, s2 = D.tree.children[node]
            U1 = _node_frame(D, s1, known)
            U2 = _node_frame(D, s2, known)
            known[node] = np.kron(U2, U1) @ matricize(D.transfers[node], (1, 2))
    return known[node]


def _recursive_reconstruct(D):
    return unvec(_node_frame(D, D.tree.root, {})[:, 0], D.shape)


HT_TREES = {
    "balanced5": (DimensionTree.balanced(5), (2, 3, 4, 3, 2)),
    "degenerate4": (degenerate_tree(4), (3, 5, 2, 4)),
    "irregular6": (DimensionTree((((0, 1), 2), (3, (4, 5)))), (2, 3, 2, 4, 3, 2)),
}


@pytest.mark.parametrize("name", list(HT_TREES))
def test_ht_walks_are_the_recursive_walks_bit_for_bit(name):
    tree, shape = HT_TREES[name]
    assert mode_sets("ht", len(shape), tree) == tree.sets
    rng = np.random.default_rng(12)
    for r in (1, 2, 3):
        draw = random_rank_r_tensor(shape, "ht", r, [12, r], tree)
        assert np.array_equal(draw, _recursive_reconstruct(_recursive_ht_draw(shape, r, [12, r], tree))), r
        for field in ("real", "complex"):
            D = truncate(_random(rng, shape, field), "ht", r, tree)
            assert np.array_equal(D.reconstruct(), _recursive_reconstruct(D)), (r, field)
            known = {}
            blocks = D.blocks()
            assert [S for S, _ in blocks] == tree.sets
            for S, U in blocks:
                assert np.array_equal(U, _node_frame(D, S, known)), (r, field, S)


def test_real_fix_svd_signs_is_the_column_loop_bit_for_bit():
    # a real phase is +-1, so one broadcast product stands in for the loop;
    # a zero column keeps its signed zeros and a NaN column turns all NaN
    rng = np.random.default_rng(13)
    for shape in ((10, 100), (100, 10), (1, 5), (5, 1)):
        U, _, Vt = np.linalg.svd(rng.standard_normal(shape), full_matrices=False)
        for r in range(1, U.shape[1] + 1):
            U_ref, Vt_ref = _loop_fix_svd_signs(U[:, :r], Vt[:r])
            U_new, Vt_new = fix_svd_signs(U[:, :r], Vt[:r])
            assert np.array_equal(U_new, U_ref) and np.array_equal(Vt_new, Vt_ref), (shape, r)
    U, _, Vt = np.linalg.svd(rng.standard_normal((6, 8)), full_matrices=False)
    U[:, 1], U[:, 2], U[3, 4] = 0.0, -0.0, np.nan
    for new, ref in zip(fix_svd_signs(U, Vt), _loop_fix_svd_signs(U, Vt)):
        assert np.array_equal(new, ref, equal_nan=True)
        assert np.array_equal(np.signbit(new), np.signbit(ref))
    assert np.all(np.isnan(fix_svd_signs(U)[:, 4])) and np.all(np.signbit(fix_svd_signs(U)[:, 2]))
    stack = np.stack([U, -U, np.zeros_like(U)])
    fixed = fix_svd_signs(stack)
    for i in range(len(stack)):
        assert np.array_equal(fixed[i], _loop_fix_svd_signs(stack[i]), equal_nan=True), i


def _tensordot_reconstruct(D):
    X = D.cores[0]
    for G in D.cores[1:]:
        X = np.tensordot(X, G, axes=(X.ndim - 1, 0))
    return X


@pytest.mark.parametrize("shape, rank", [((10, 10, 10), (2, 2)), ((4, 5, 3, 6), (3, 4, 5)), ((2, 3), (1,))])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_tt_reconstruct_is_the_tensordot_chain_bit_for_bit(shape, rank, field):
    D = truncate(_random(np.random.default_rng(14), shape, field), "tt", rank)
    assert np.array_equal(D.reconstruct(), _tensordot_reconstruct(D))


@pytest.mark.parametrize("name", list(HT_TREES))
@pytest.mark.parametrize("field", ["real", "complex"])
def test_ht_node_frames_are_computed_once_as_the_kron_form(name, field):
    tree, shape = HT_TREES[name]
    D = truncate(_random(np.random.default_rng(15), shape, field), "ht", 2, tree)
    X = D.reconstruct()
    blocks = D.blocks()
    known = {}
    for S, U in blocks:
        assert np.array_equal(U, _node_frame(D, S, known)), S
    assert np.array_equal(X, _recursive_reconstruct(D))
    # reconstruct() and every blocks() share one set of node frames
    assert all(U is V for (_, U), (_, V) in zip(blocks, D.blocks(), strict=True))


def _per_mode_hosvd_draw(shape, ranks, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(ranks)
    for k, (n, r) in enumerate(zip(shape, ranks)):
        U, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
        X = np.moveaxis(np.tensordot(X, _loop_fix_svd_signs(U[:, :r]), ([k], [1])), -1, k)
    return X


# unequal ranks within one group of equal n x n matrices, and a shape with no two extents alike
@pytest.mark.parametrize("shape, ranks", [((10, 10, 10), (3, 2, 3)), ((4, 5, 3, 6), (4, 2, 3, 5))])
def test_hosvd_draw_is_one_svd_per_mode_bit_for_bit(shape, ranks):
    for seed in (3, [3, 1], [2016, 8, 3, 0]):
        expected = _per_mode_hosvd_draw(shape, ranks, seed)
        assert np.array_equal(hosvd_random(shape, ranks, seed), expected), seed


def _unvec_adjoint(A, y):
    if hasattr(A, "matrix"):
        return unvec(A.matrix.T @ y, A.shape)
    T = np.zeros(A.size, dtype=np.complex128 if hasattr(A, "signs") else y.dtype)
    if hasattr(A, "signs"):
        T[A.omega] = y
        return A.signs * (np.fft.ifftn(unvec(T, A.shape)) * A.size) / np.sqrt(A.m)
    T[A.omega] = A.scale * y
    return unvec(T, A.shape)


def _vec_apply(A, X):
    if hasattr(A, "matrix"):
        return A.matrix @ vec(X)
    if hasattr(A, "signs"):
        return vec(np.fft.fftn(A.signs * X))[A.omega] / np.sqrt(A.m)
    return A.scale * vec(X)[A.omega]


@pytest.mark.parametrize("kind", ["gaussian", "fourier", "completion"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_measurement_maps_are_the_vec_and_unvec_forms(kind, field):
    rng = np.random.default_rng(17)
    shape = (4, 5, 3)
    A = draw(kind, shape, 30, 18)
    X = _random(rng, shape, field)
    y = _random(rng, (30,), field)
    assert np.array_equal(A.apply(X), _vec_apply(A, X))
    assert np.array_equal(A.adjoint(y), _unvec_adjoint(A, y))


@pytest.mark.parametrize(
    "shape, m", [((10, 10, 10), 30), ((10, 10, 10), 80), ((10, 10, 10), 240), ((10, 10, 10), 400), ((4, 5, 3, 6), 97)]
)
def test_gaussian_draw_is_the_quotient_by_sqrt_m_bit_for_bit(shape, m):
    # the draw scales its matrix in place; IEEE division rounds as the new quotient does
    seed = [2016, m, 0, 1]
    reference = np.random.default_rng(seed).standard_normal((m, math.prod(shape))) / math.sqrt(m)
    assert np.array_equal(draw("gaussian", shape, m, seed).matrix, reference)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_frobenius_norm_is_np_linalg_norm_bit_for_bit(field):
    rng = np.random.default_rng(19)
    for shape in ((1000,), (10, 10, 10), (4, 5, 3, 6), (1,)):
        X = _random(rng, shape, field)
        assert frobenius_norm(X) == float(np.linalg.norm(X)), shape
        assert frobenius_norm(X[..., ::2]) == float(np.linalg.norm(X[..., ::2])), shape
    with np.errstate(over="ignore"):
        assert frobenius_norm(np.array([1e300, 1e300])) == float(np.linalg.norm([1e300, 1e300])) == np.inf
    assert np.isnan(frobenius_norm(np.array([1.0, np.nan])))
    assert frobenius_norm(np.arange(5)) == float(np.linalg.norm(np.arange(5)))

"""The truncation path's kernels against the forms they replaced, bit for bit.

The references below are the earlier implementations: one SVD and a Python
column loop per basis, ``tensordot`` plus ``moveaxis`` per mode product, and
the recursive dimension-tree walks of the HT draw and the HT node frames.
The kernels must agree with them under ``np.array_equal``, not within a
tolerance, so that seeded traces stay identical.
"""

import numpy as np
import pytest

from tiht._linalg import fix_svd_signs, signed_svd, top_left_bases
from tiht.experiments import random_rank_r_tensor
from tiht.formats import (
    DimensionTree,
    HTDecomposition,
    clamp_ranks,
    mode_sets,
    truncate,
)
from tiht.tensors import matricize, mode_product, unvec


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
    "degenerate4": (DimensionTree.degenerate(4), (3, 5, 2, 4)),
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

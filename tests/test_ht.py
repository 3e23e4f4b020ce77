import math

import numpy as np
import pytest

from oracles import degenerate_tree, probe_ranks
from tiht.experiments import random_rank_r_tensor
from tiht.formats import DimensionTree, clamp_ranks, truncate
from tiht.tensors import frobenius_norm


def test_balanced_tree_structure():
    # a node is its tuple of modes
    tree = DimensionTree.balanced(4)
    assert tree.root == (0, 1, 2, 3)
    assert tree.children[(0, 1, 2, 3)] == ((0, 1), (2, 3))
    tree5 = DimensionTree.balanced(5)
    assert tree5.children[(0, 1, 2, 3, 4)] == ((0, 1, 2), (3, 4))
    assert tree5.children[(0, 1, 2)] == ((0, 1), (2,))


def test_degenerate_tree_is_tt_shaped():
    tree = degenerate_tree(4)
    assert tree.children[(0, 1, 2, 3)] == ((0,), (1, 2, 3))
    assert tree.children[(1, 2, 3)] == ((1,), (2, 3))
    assert tree.children[(2, 3)] == ((2,), (3,))


def test_tree_nested_roundtrip_and_validation():
    tree = DimensionTree.balanced(5)
    assert DimensionTree(tree.nested) == tree
    assert DimensionTree([[0, 1], 2]) == DimensionTree(((0, 1), 2)) != DimensionTree((0, (1, 2)))
    with pytest.raises(ValueError):
        DimensionTree(((1, 0), 2))  # sons out of order
    with pytest.raises(ValueError):
        DimensionTree((0, (2, 3)))  # gap between sons
    with pytest.raises(ValueError):
        DimensionTree((0, 1, 2))  # not binary
    with pytest.raises(ValueError, match="starting at 0"):
        DimensionTree((1, 2))  # the root does not start at mode 0


def test_single_leaf_tree_is_rejected():
    # a leaf root has no non-root node to carry a rank, so no truncation runs over it
    for make in (lambda: DimensionTree(0), lambda: DimensionTree(2), lambda: DimensionTree.balanced(1),
                 lambda: DimensionTree.balanced(0)):
        with pytest.raises(ValueError, match="order >= 2"):
            make()


def test_exact_rank_roundtrip():
    tree = DimensionTree.balanced(4)
    for seed in range(5):
        X = random_rank_r_tensor((3, 4, 3, 2), "ht", 2, np.random.default_rng([50, seed]), tree)
        D = truncate(X, "ht", 2, tree)
        assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_separable_tensor_rank_one_exact():
    rng = np.random.default_rng(51)
    us = [rng.standard_normal(n) for n in (3, 4, 5, 2)]
    X = np.einsum("i,j,k,l->ijkl", *us)
    tree = DimensionTree.balanced(4)
    D = truncate(X, "ht", 1, tree)
    assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_truncation_bounds_node_ranks():
    rng = np.random.default_rng(52)
    X = rng.standard_normal((3, 3, 3, 3))
    tree = DimensionTree.balanced(4)
    D = truncate(X, "ht", 2, tree)
    assert all(r <= 2 for r in probe_ranks(D.reconstruct(), "ht", tree))


def test_leaf_frames_orthonormal():
    rng = np.random.default_rng(53)
    X = rng.standard_normal((3, 4, 5))
    tree = DimensionTree.balanced(3)
    D = truncate(X, "ht", 2, tree)
    for U in D.frames.values():
        assert np.linalg.norm(U.T @ U - np.eye(U.shape[1])) < 1e-10


def test_quasi_optimality_on_seeded_trials():
    # leaves-to-root constant (2 + sqrt(2)) sqrt(d) with d = 4
    tree = DimensionTree.balanced(4)
    bound = (2 + math.sqrt(2)) * 2
    violations = 0
    for seed in range(50):
        rng = np.random.default_rng([54, seed])
        X = rng.standard_normal((3, 3, 3, 3))
        err_hr = frobenius_norm(X - truncate(X, "ht", 1, tree).reconstruct())
        Z = random_rank_r_tensor((3, 3, 3, 3), "ht", 1, np.random.default_rng([55, seed]), tree)
        err_z = frobenius_norm(X - Z)
        if err_hr > bound * err_z + 1e-10:
            violations += 1
    assert violations == 0


def test_error_contractive_in_rank():
    tree = DimensionTree.balanced(4)
    for seed in range(10):
        rng = np.random.default_rng([56, seed])
        X = rng.standard_normal((3, 3, 3, 3))
        errors = [
            frobenius_norm(X - truncate(X, "ht", r, tree).reconstruct()) for r in (1, 2, 3)
        ]
        for bigger, smaller in zip(errors[1:], errors[:-1]):
            assert bigger <= smaller + 1e-12


def test_rank_clamping_and_tree_order():
    tree = DimensionTree.balanced(3)
    rng = np.random.default_rng(57)
    X = rng.standard_normal((4, 4, 4))
    sets, ranks = clamp_ranks("ht", 99, (4, 4, 4), tree)
    clamped = dict(zip(sets, ranks))
    assert clamped[(0,)] == 4  # the leaf dimension
    assert clamped[(0, 1)] == 4  # 16 rows but 4 columns
    D = truncate(X, "ht", 99, tree)
    assert D.transfers[tree.root].shape[0] == 1
    with pytest.raises(ValueError):
        truncate(X, "ht", 2, DimensionTree.balanced(4))


def _clamp_cases():
    shapes = [(2, 3, 4), (5, 1, 3), (2, 3, 4, 2), (4, 2, 2, 3), (2, 3, 2, 4, 2), (3, 2, 1, 2, 3)]
    for shape in shapes:
        for name in ("balanced", "degenerate"):
            for field in ("real", "complex"):
                yield pytest.param(shape, name, field, id=f"{'x'.join(map(str, shape))}-{name}-{field}")


@pytest.mark.parametrize("shape, name, field", list(_clamp_cases()))
def test_clamped_ranks_are_the_truncation_ranks(shape, name, field):
    # clamp_ranks is the only rank clamp of an HT truncate, so for every int rank the
    # node frames must come out exactly as wide as the clamp says
    tree = {"balanced": DimensionTree.balanced, "degenerate": degenerate_tree}[name](len(shape))
    rng = np.random.default_rng([58, len(shape), sum(shape)])
    X = rng.standard_normal(shape)
    if field == "complex":
        X = X + 1j * rng.standard_normal(shape)
    for r in range(1, 10):
        widths = tuple(U.shape[1] for _, U in truncate(X, "ht", r, tree).blocks())
        assert clamp_ranks("ht", r, shape, tree)[1] == widths, r


def test_ht_rank_probe_on_structured_tensor():
    tree = DimensionTree.balanced(4)
    X = random_rank_r_tensor((3, 4, 3, 2), "ht", 2, np.random.default_rng(63), tree)
    ranks = probe_ranks(X, "ht", tree)
    assert len(ranks) == len(tree.sets) and all(r <= 2 for r in ranks)
    rng = np.random.default_rng(64)
    us = [rng.standard_normal(n) for n in (3, 4, 3, 2)]
    sep = np.einsum("i,j,k,l->ijkl", *us)
    assert all(r == 1 for r in probe_ranks(sep, "ht", tree))

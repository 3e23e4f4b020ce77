import math

import numpy as np
import pytest

from tiht.experiments import random_rank_r_tensor
from tiht.formats import (
    DimensionTree,
    ht_rank,
    ht_truncate,
    normalize_ht_ranks,
)
from tiht.tensors import frobenius_norm


def test_balanced_tree_structure():
    tree = DimensionTree.balanced(4)
    assert tree.root == (0, 4)
    assert tree.children((0, 4)) == ((0, 2), (2, 4))
    assert tree.leaves() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert set(tree.interior()) == {(0, 4), (0, 2), (2, 4)}
    tree5 = DimensionTree.balanced(5)
    assert tree5.children((0, 5)) == ((0, 3), (3, 5))
    assert tree5.children((0, 3)) == ((0, 2), (2, 3))


def test_degenerate_tree_is_tt_shaped():
    tree = DimensionTree.degenerate(4)
    assert tree.children((0, 4)) == ((0, 1), (1, 4))
    assert tree.children((1, 4)) == ((1, 2), (2, 4))
    assert tree.children((2, 4)) == ((2, 3), (3, 4))


def test_tree_nested_roundtrip_and_validation():
    tree = DimensionTree.balanced(5)
    assert DimensionTree(tree.to_nested()) == tree
    with pytest.raises(ValueError):
        DimensionTree(((1, 0), 2))  # sons out of order
    with pytest.raises(ValueError):
        DimensionTree((0, (2, 3)))  # gap between sons
    with pytest.raises(ValueError):
        DimensionTree((0, 1, 2))  # not binary


def test_interior_bottom_up_orders_sons_first():
    tree = DimensionTree.balanced(4)
    order = tree.interior_bottom_up(include_root=True)
    assert order.index((0, 2)) < order.index((0, 4))
    assert order.index((2, 4)) < order.index((0, 4))
    assert order[-1] == (0, 4)


def test_exact_rank_roundtrip():
    tree = DimensionTree.balanced(4)
    for seed in range(5):
        X = random_rank_r_tensor((3, 4, 3, 2), "ht", 2, np.random.default_rng([50, seed]), tree)
        D = ht_truncate(X, tree, 2)
        assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_separable_tensor_rank_one_exact():
    rng = np.random.default_rng(51)
    us = [rng.standard_normal(n) for n in (3, 4, 5, 2)]
    X = np.einsum("i,j,k,l->ijkl", *us)
    tree = DimensionTree.balanced(4)
    D = ht_truncate(X, tree, 1)
    assert frobenius_norm(D.reconstruct() - X) <= 1e-10 * frobenius_norm(X)


def test_truncation_bounds_node_ranks():
    rng = np.random.default_rng(52)
    X = rng.standard_normal((3, 3, 3, 3))
    tree = DimensionTree.balanced(4)
    D = ht_truncate(X, tree, 2)
    ranks = ht_rank(D.reconstruct(), tree)
    assert all(r <= 2 for node, r in ranks.items() if node != tree.root)


def test_leaf_frames_orthonormal():
    rng = np.random.default_rng(53)
    X = rng.standard_normal((3, 4, 5))
    tree = DimensionTree.balanced(3)
    D = ht_truncate(X, tree, 2)
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
        err_hr = frobenius_norm(X - ht_truncate(X, tree, 1).reconstruct())
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
            frobenius_norm(X - ht_truncate(X, tree, r).reconstruct()) for r in (1, 2, 3)
        ]
        for bigger, smaller in zip(errors[1:], errors[:-1]):
            assert bigger <= smaller + 1e-12


def test_rank_map_input_and_clamping():
    tree = DimensionTree.balanced(3)
    ranks = {node: 2 for node in tree.nodes()}
    rng = np.random.default_rng(57)
    X = rng.standard_normal((4, 4, 4))
    D = ht_truncate(X, tree, ranks)
    assert D.rank(tree.root) == 1
    norm = normalize_ht_ranks(tree, 99, (4, 4, 4))
    assert norm[(0, 1)] == 4  # clamped to leaf dimension
    assert norm[(0, 2)] == 4  # clamped to complement size 16 -> min(16, 99, 16)=16? no: 4*4=16 rows, 4 cols
    with pytest.raises(ValueError):
        normalize_ht_ranks(tree, {}, (4, 4, 4))
    with pytest.raises(ValueError):
        ht_truncate(X, DimensionTree.balanced(4), 2)


def test_ht_rank_probe_on_structured_tensor():
    tree = DimensionTree.balanced(4)
    X = random_rank_r_tensor((3, 4, 3, 2), "ht", 2, np.random.default_rng(63), tree)
    ranks = ht_rank(X, tree)
    assert ranks[tree.root] == 1
    assert all(r <= 2 for node, r in ranks.items())
    rng = np.random.default_rng(64)
    us = [rng.standard_normal(n) for n in (3, 4, 3, 2)]
    sep = np.einsum("i,j,k,l->ijkl", *us)
    assert all(r == 1 for r in ht_rank(sep, tree).values())

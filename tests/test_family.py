import sys

import numpy as np
import pytest

import tiht.formats
from oracles import degenerate_tree, probe_ranks
from tiht.analysis import trip_estimate
from tiht.experiments import ExperimentSpec
from tiht.formats import DimensionTree, clamp_ranks, mode_sets, random_rank_r_tensor, truncate
from tiht.measurements import draw
from tiht.solvers import SolverConfig, tiht_run

SHAPE = (2, 3, 4, 5)


@pytest.mark.parametrize(
    "shape, fmt, tree, sets, ranks, clamped, bad",
    [
        (
            SHAPE,
            "hosvd",
            None,
            [(0,), (1,), (2,), (3,)],
            (9, 9, 9, 9),
            (2, 3, 4, 5),
            [((1, 1, 1), None), ((1, 0, 1, 1), None)],
        ),
        (
            SHAPE,
            "tt",
            None,
            [(0,), (0, 1), (0, 1, 2)],
            (9, 9, 9),
            (2, 6, 5),
            [((1, 1, 1, 1), None), ((1, 0, 1), None)],
        ),
        (
            SHAPE,
            "ht",
            DimensionTree.balanced(4),
            [(0,), (1,), (2,), (3,), (0, 1), (2, 3)],
            9,
            (2, 3, 4, 5, 6, 6),
            [((1,) * 6, None), (0, None), (1, DimensionTree.balanced(3))],
        ),
        (
            SHAPE,
            "ht",
            degenerate_tree(4),
            [(2,), (3,), (1,), (2, 3), (0,), (1, 2, 3)],
            9,
            (4, 5, 3, 6, 2, 2),
            [({(2, 3): 1}, None), (0, None), (1, degenerate_tree(5))],
        ),
        (
            (3, 3, 3, 3),
            "tt",
            None,
            [(0,), (0, 1), (0, 1, 2)],
            (1, 9, 1),
            (1, 3, 1),
            [((1, 9), None), ((1, 9, 0), None)],
        ),
    ],
    ids=["hosvd", "tt", "ht-balanced", "ht-degenerate", "tt-attainable"],
)
def test_family_mode_sets_clamp_and_rank_validation(shape, fmt, tree, sets, ranks, clamped, bad):
    # sons before fathers for HT; ranks clamped to min(r, n_S, N / n_S), and
    # TT ranks left to right to r_{k-1} n_k, what TT-SVD can attain
    assert mode_sets(fmt, len(shape), tree) == sets
    assert clamp_ranks(fmt, ranks, shape, tree) == (sets, clamped)
    # a wrong length (or tree order), a zero rank, an HT rank that is not one int
    for bad_ranks, bad_tree in bad:
        with pytest.raises(ValueError):
            clamp_ranks(fmt, bad_ranks, shape, bad_tree or tree)


def test_one_ht_truncation_clamps_its_rank_once(monkeypatch):
    # the HT leaf step hands its clamped leaf ranks straight to the HOSVD kernel,
    # and truncate resolves one (format, rank, shape, tree) once per process
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return clamp_ranks(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tiht") and getattr(module, "clamp_ranks", None) is clamp_ranks:
            monkeypatch.setattr(module, "clamp_ranks", counting)
    tiht.formats._resolve.cache_clear()
    X = np.random.default_rng(59).standard_normal((4, 4, 4))
    truncate(X, "ht", 2)
    assert len(calls) == 1
    truncate(X + 1, "ht", np.int64(2))
    assert len(calls) == 1  # the checked rank is the cache key, so a numpy integer shares 2's entry
    truncate(2 * X, "ht", 2)
    assert len(calls) == 1


def test_truncate_resolves_equal_ranks_and_trees_alike():
    rng = np.random.default_rng(60)
    X = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))

    def same(D, E):
        return np.array_equal(D.reconstruct(), E.reconstruct()) and all(
            S == T and np.array_equal(U, V) for (S, U), (T, V) in zip(D.blocks(), E.blocks(), strict=True)
        )

    for fmt, rank in (("hosvd", (2, 1, 3)), ("tt", (2, 3))):
        D = truncate(X, fmt, rank)
        assert same(D, truncate(X, fmt, list(rank)))
        assert same(D, truncate(X, fmt, tuple(np.int64(r) for r in rank)))
        assert same(D, truncate(X, fmt, np.array(rank)))  # checked into the tuple's cache entry
    balanced = truncate(X, "ht", 2)
    assert same(balanced, truncate(X, "ht", np.int64(2), DimensionTree(((0, 1), 2))))
    assert hash(DimensionTree(((0, 1), 2))) == hash(DimensionTree.balanced(3))
    # an explicit tree is part of the key: it is not answered with the default tree
    degenerate = truncate(X, "ht", 2, degenerate_tree(3))
    assert degenerate.tree == degenerate_tree(3) != balanced.tree
    assert [S for S, _ in degenerate.blocks()] == degenerate_tree(3).sets
    assert not np.array_equal(degenerate.reconstruct(), balanced.reconstruct())
    # a config keeps the checked rank, so equal ranks in any form give equal, hashable configs and specs
    for fmt, rank in (("hosvd", (2, 2, 3)), ("tt", (2, 3)), ("ht", 2)):
        forms = [rank, np.int64(rank)] if fmt == "ht" else [rank, list(rank), tuple(map(np.int64, rank)), np.array(rank)]
        configs = {SolverConfig(rank=form, format=fmt) for form in forms}
        specs = {ExperimentSpec(shape=X.shape, rank=form, format=fmt, grid=(50,)) for form in forms}
        assert len(configs) == len(specs) == 1
        assert configs.pop().rank == specs.pop().rank == rank


@pytest.mark.parametrize(
    "fmt, good, bad",
    [("hosvd", (1, 1, 1), (1, 0, 1)), ("tt", (1, 1), (1, 1, 1)), ("ht", 2, 2.0)],
    ids=["hosvd-zero", "tt-length", "ht-float"],
)
def test_truncate_rejects_a_bad_rank_on_every_call(fmt, good, bad):
    # exceptions are never cached, and an HT rank 2.0 is not the cached 2
    X = np.random.default_rng(61).standard_normal((3, 3, 3))
    truncate(X, fmt, good)
    for _ in range(2):
        with pytest.raises(ValueError):
            truncate(X, fmt, bad)


# a float, None, a bool, a str, a dict, a set and a nested entry are no rank of any format
MALFORMED = {
    "float": 2.0,
    "none": None,
    "bool": True,
    "str": "111",
    "dict": {1: 1, 2: 1, 3: 1},
    "set": {1, 2},
    "nested": ((1,), 1, 1),
}


@pytest.mark.parametrize(
    "rank",
    [
        (1, 1, 1),
        [2],
        {(0, 2): 1, (2, 3): 1, (0, 1): 1, (1, 2): 1},
        *(pytest.param(rank, id=label) for label, rank in MALFORMED.items()),
    ],
)
def test_ht_rank_other_than_one_int_is_a_value_error(rank):
    # every entry point reads an HT rank through check_rank
    A = draw("gaussian", (4, 4, 4), 32, 0)
    y = A.apply(np.ones((4, 4, 4)))
    calls = [
        lambda: clamp_ranks("ht", rank, (4, 4, 4)),
        lambda: truncate(np.ones((4, 4, 4)), "ht", rank),
        lambda: random_rank_r_tensor((4, 4, 4), "ht", rank, 0),
        lambda: ExperimentSpec(shape=(4, 4, 4), rank=rank, format="ht", grid=(50,)),
        lambda: tiht_run(A, y, SolverConfig(rank=rank, format="ht")),
        lambda: trip_estimate(A, "ht", rank, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="one int"):
            call()


@pytest.mark.parametrize(
    "fmt, rank",
    [
        pytest.param(fmt, rank, id=fmt if label == "int" else f"{fmt}-{label}")
        for fmt in ("hosvd", "tt")
        for label, rank in {"int": 1, **MALFORMED}.items()
    ],
)
def test_int_hosvd_or_tt_rank_is_a_value_error(fmt, rank):
    # a HOSVD or TT rank has one int per mode set, read through check_rank
    A = draw("gaussian", (4, 4, 4), 32, 0)
    y = A.apply(np.ones((4, 4, 4)))
    calls = [
        lambda: clamp_ranks(fmt, rank, (4, 4, 4)),
        lambda: truncate(np.ones((4, 4, 4)), fmt, rank),
        lambda: random_rank_r_tensor((4, 4, 4), fmt, rank, 0),
        lambda: ExperimentSpec(shape=(4, 4, 4), rank=rank, format=fmt, grid=(50,)),
        lambda: tiht_run(A, y, SolverConfig(rank=rank, format=fmt)),
        lambda: trip_estimate(A, fmt, rank, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sequence of one int"):
            call()


@pytest.mark.parametrize(
    "fmt, shape, rank",
    [
        ("hosvd", (3, 3, 3), (3, 1, 1)),
        ("hosvd", (4, 4, 4), (4, 2, 1)),
        ("tt", (4, 2, 2), (4, 1)),
        ("tt", (3, 3, 3, 3), (3, 9, 1)),
    ],
    ids=["hosvd-311", "hosvd-421", "tt-41", "tt-391"],
)
def test_draw_rejects_a_rank_it_cannot_reach(fmt, shape, rank):
    # HOSVD: r_k > prod_{j != k} r_j, the columns of the core's mode-k
    # unfolding; TT: a clamped r_k > n_{k+1} r_{k+1}, with r_d = 1
    A = draw("gaussian", shape, 8, 0)
    calls = [
        lambda: random_rank_r_tensor(shape, fmt, rank, 0),
        lambda: ExperimentSpec(shape=shape, rank=rank, format=fmt, grid=(50,)),
        lambda: trip_estimate(A, fmt, rank, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="draw rank"):
            call()


@pytest.mark.parametrize(
    "fmt, shape, rank",
    [
        ("hosvd", (4, 4, 4), (4, 2, 2)),
        ("hosvd", (2, 3, 4, 5), (2, 3, 4, 5)),
        ("tt", (4, 2, 2), (4, 2)),
        ("tt", (3, 3, 3, 3), (3, 3, 1)),
    ],
    ids=["hosvd-422", "hosvd-2345", "tt-42", "tt-331"],
)
def test_draw_reaches_a_rank_on_the_bound(fmt, shape, rank):
    for seed in range(5):
        assert probe_ranks(random_rank_r_tensor(shape, fmt, rank, seed), fmt) == rank

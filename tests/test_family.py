import pytest

from tiht.formats import DimensionTree, clamp_ranks, mode_sets

SHAPE = (2, 3, 4, 5)


@pytest.mark.parametrize(
    "fmt, tree, sets, ranks, clamped, bad",
    [
        (
            "hosvd",
            None,
            [(0,), (1,), (2,), (3,)],
            (9, 9, 9, 9),
            (2, 3, 4, 5),
            [((1, 1, 1), None), ((1, 0, 1, 1), None)],
        ),
        (
            "tt",
            None,
            [(0,), (0, 1), (0, 1, 2)],
            (9, 9, 9),
            (2, 6, 5),
            [((1, 1, 1, 1), None), ((1, 0, 1), None)],
        ),
        (
            "ht",
            DimensionTree.balanced(4),
            [(0,), (1,), (2,), (3,), (0, 1), (2, 3)],
            9,
            (2, 3, 4, 5, 6, 6),
            [({(0, 1): 1}, None), (0, None), (1, DimensionTree.balanced(3))],
        ),
        (
            "ht",
            DimensionTree.degenerate(4),
            [(2,), (3,), (1,), (2, 3), (0,), (1, 2, 3)],
            {(2, 3): 9, (3, 4): 9, (1, 2): 1, (2, 4): 9, (0, 1): 9, (1, 4): 9},
            (4, 5, 1, 6, 2, 2),
            [({(2, 3): 1}, None), (0, None), (1, DimensionTree.degenerate(5))],
        ),
    ],
    ids=["hosvd", "tt", "ht-balanced", "ht-degenerate"],
)
def test_family_mode_sets_clamp_and_rank_validation(fmt, tree, sets, ranks, clamped, bad):
    # sons before fathers for HT; ranks clamped to min(r, n_S, N / n_S)
    assert mode_sets(fmt, len(SHAPE), tree) == sets
    assert clamp_ranks(fmt, ranks, SHAPE, tree) == (sets, clamped)
    # a wrong length (or tree order), a zero rank, a missing HT node
    for bad_ranks, bad_tree in bad:
        with pytest.raises(ValueError):
            clamp_ranks(fmt, bad_ranks, SHAPE, bad_tree or tree)

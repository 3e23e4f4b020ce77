"""The one count rule: an extent, mode index, rank, m, iteration cap, trial
count, grid value, seed or formula size is an int or NumPy integer of at
least its minimum; a float, a string, a bool or a smaller value is a
ValueError that names the input, never a silent ``int()``.  A measurement
percentage nbar is such a count of at most 100.
"""

import re

import numpy as np
import pytest

from tiht.analysis import sample_complexity, storage_count, trip_estimate
from tiht.cli import main
from tiht.experiments import ExperimentSpec, measurement_count
from tiht.formats import DimensionTree, truncate
from tiht.measurements import ENSEMBLES, draw
from tiht.solvers import SolverConfig
from tiht.tensors import check_shape, matricize, mode_product

X = np.random.default_rng(0).standard_normal((2, 3, 4, 5))


def _spec(grid=(50,), **kwargs):
    return ExperimentSpec(shape=(4, 4, 4), rank=(1, 1, 1), grid=grid, **kwargs)


# entry point: (the name its error gives the input, the least count, a call with the count v)
COUNTS = {
    "check_shape": ("extent", 1, lambda v: check_shape((4, v, 4))),
    "matricize": ("mode index", 0, lambda v: matricize(X, (v,))),
    "mode_product": ("mode index", 0, lambda v: mode_product(X, np.ones((2, 3)), v)),
    "truncate-hosvd": ("rank", 1, lambda v: truncate(X, "hosvd", (v, 1, 1, 1))),
    "truncate-tt": ("rank", 1, lambda v: truncate(X, "tt", (1, v, 1))),
    **{f"draw-{kind}": ("m", 1, lambda v, kind=kind: draw(kind, (4, 4, 4), v, 0)) for kind in ENSEMBLES},
    "SolverConfig-max_iters": ("max_iters", 1, lambda v: SolverConfig(rank=(1, 1, 1), max_iters=v)),
    "ExperimentSpec-trials": ("trials", 1, lambda v: _spec(trials=v)),
    "ExperimentSpec-grid": ("nbar", 1, lambda v: _spec(grid=(50, v))),
    "measurement_count": ("nbar", 1, lambda v: measurement_count((4, 4, 4), v)),
    "ExperimentSpec-seed": ("seed", 0, lambda v: _spec(seed=v)),
    "trip_estimate": ("n_samples", 1, lambda v: trip_estimate(draw("gaussian", (4, 4, 4), 20, 0), "hosvd", (1, 1, 1), v)),
    "trip_estimate-seed": ("seed", 0, lambda v: trip_estimate(draw("gaussian", (4, 4, 4), 20, 0), "hosvd", (1, 1, 1), 2, v)),
    "sample_complexity-d": ("d", 1, lambda v: sample_complexity("hosvd", v, 10, 1, 0.5, 0.01)),
    "sample_complexity-n": ("n", 1, lambda v: sample_complexity("tt", 3, v, 1, 0.5, 0.01)),
    "sample_complexity-r": ("r", 1, lambda v: sample_complexity("ht", 3, 10, v, 0.5, 0.01)),
    "storage_count-r": ("r", 1, lambda v: storage_count("tt", 3, 10, v)),
}


@pytest.mark.parametrize("name, minimum, call", COUNTS.values(), ids=COUNTS)
@pytest.mark.parametrize("bad", ["float", "string", "bool", "below"])
def test_a_count_is_an_integer_of_at_least_its_minimum(name, minimum, call, bad):
    value = {"float": 2.5, "string": "3", "bool": True, "below": minimum - 1}[bad]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {minimum}, got {value!r}")):
        call(value)
    call(np.int64(minimum + 1))  # a NumPy integer is a count


@pytest.mark.parametrize("kind", ENSEMBLES)
def test_a_numpy_integer_m_draws_the_same_ensemble(kind):
    A, B = draw(kind, (3, 4, 5), np.int64(20), 7), draw(kind, (3, 4, 5), 20, 7)
    assert type(A.m) is int and vars(A).keys() == vars(B).keys()
    assert all(np.array_equal(value, vars(B)[key]) for key, value in vars(A).items())


def test_a_tree_leaf_is_a_mode_index():
    assert DimensionTree(((np.int64(0), 1), np.int64(2))) == DimensionTree.balanced(3)
    with pytest.raises(ValueError, match=re.escape("mode index must be an integer >= 0, got -1")):
        DimensionTree((-1, 0))


def test_a_percentage_is_a_count_of_at_most_100():
    assert measurement_count((4, 4, 4), 100) == 64 and _spec(grid=(100,)).grid == (100,)
    for call in (lambda v: measurement_count((4, 4, 4), v), lambda v: _spec(grid=(50, v))):
        with pytest.raises(ValueError, match=re.escape("nbar must be an integer in 1..100, got 101")):
            call(101)


@pytest.mark.parametrize("nbar, message", [("0", "nbar must be an integer >= 1, got 0"), ("150", "nbar must be an integer in 1..100, got 150")])
def test_recover_names_a_bad_nbar_and_exits_with_status_2(nbar, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--shape", "4x4x4", "--nbar", nbar])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"tiht recover: {message}\n"


@pytest.mark.parametrize("argv", [["recover", "--nbar", "50"], ["trip", "--m", "20", "--samples", "2"]], ids=["recover", "trip"])
def test_the_cli_names_a_negative_seed_before_any_draw(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--shape", "4x4x4", "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"tiht {argv[0]}: seed must be an integer >= 0, got -1\n"

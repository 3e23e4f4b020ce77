import dataclasses
import math

import numpy as np
import pytest

from oracles import load_results, probe_ranks
from tiht.experiments import (
    ExperimentSpec,
    emit_results,
    generate_test_tensor,
    measurements_for,
    run_phase_diagram,
    run_single_trial,
)


def _small_spec(**overrides):
    params = dict(
        shape=(6, 6, 6),
        rank=(1, 1, 1),
        ensemble="gaussian",
        variant="ntiht",
        grid=(10, 50),
        trials=4,
        seed=99,
        max_iters=400,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def test_generator_rank_one_is_separable():
    X = generate_test_tensor((6, 5, 4), (1, 1, 1), seed=0)
    assert probe_ranks(X, "hosvd") == (1, 1, 1)


def test_generator_hits_requested_rank_100_draws():
    for seed in range(100):
        X = generate_test_tensor((10, 10, 10), (2, 2, 2), seed=seed)
        assert probe_ranks(X, "hosvd") == (2, 2, 2)


def test_generator_deterministic():
    X1 = generate_test_tensor((5, 5, 5), (2, 2, 2), seed=7)
    X2 = generate_test_tensor((5, 5, 5), (2, 2, 2), seed=7)
    assert np.array_equal(X1, X2)
    X3 = generate_test_tensor((5, 5, 5), (2, 2, 2), seed=8)
    assert not np.array_equal(X1, X3)


def test_generator_validates_rank():
    with pytest.raises(ValueError):
        generate_test_tensor((3, 3, 3), (4, 1, 1), seed=0)
    with pytest.raises(ValueError):
        generate_test_tensor((3, 3, 3), (1, 1), seed=0)
    # r_1 = 5 exceeds N / n_1 = 4, the column count of the mode-1 unfolding
    with pytest.raises(ValueError):
        generate_test_tensor((10, 2, 2), (5, 1, 1), 0)


def test_spec_measurement_count_and_validation():
    spec = _small_spec()
    assert spec.m_of(10) == math.ceil(216 * 10 / 100)
    assert spec.m_of(1) == 3
    assert spec.threshold == 1e-3
    assert _small_spec(ensemble="completion").threshold == 2.5e-3
    with pytest.raises(ValueError):
        _small_spec(grid=(0, 10))
    with pytest.raises(ValueError):
        _small_spec(trials=0)
    with pytest.raises(ValueError):
        _small_spec(ensemble="bernoulli")


def test_spec_threshold_is_kept_as_given_and_must_be_positive():
    assert _small_spec(threshold=1e-6).threshold == 1e-6
    for bad in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            _small_spec(threshold=bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"variant": "bogus"},
        {"format": "bogus"},
        {"max_iters": 0},
        {"conv_tol": 0.0},
        {"rank": (1, 1)},
        {"shape": (3, 3, 3), "rank": (4, 1, 1)},
        {"shape": (10, 2, 2), "rank": (5, 1, 1)},
    ],
    ids=[
        "variant",
        "format",
        "max_iters",
        "conv_tol",
        "rank-length",
        "hosvd-rank-above-extent",
        "hosvd-rank-above-columns",
    ],
)
def test_spec_validates_solver_fields_and_rank_when_built(bad):
    with pytest.raises(ValueError):
        _small_spec(**bad)
    shortened = dataclasses.replace(_small_spec(), trials=1, max_iters=2)
    assert (shortened.trials, shortened.max_iters) == (1, 2)


def test_spec_accepts_tt_and_ht_ranks_that_get_clamped():
    for fmt, rank in (("tt", (9, 9)), ("ht", 9)):
        spec = _small_spec(shape=(3, 3, 3), rank=rank, format=fmt, trials=1, max_iters=2)
        assert run_phase_diagram(spec, workers=1).cells[0].trials == 1


def test_phase_diagram_deterministic_across_worker_counts():
    spec = _small_spec()
    serial = run_phase_diagram(spec, workers=1)
    parallel = run_phase_diagram(spec, workers=2)
    for a, b in zip(serial.cells, parallel.cells):
        assert (a.nbar, a.m, a.successes, a.trials) == (b.nbar, b.m, b.successes, b.trials)
        assert a.mean_iterations == b.mean_iterations
        assert a.mean_error == b.mean_error


def test_phase_diagram_transition_summaries():
    spec = _small_spec(grid=(2, 50))
    diagram = run_phase_diagram(spec, workers=2)
    by_nbar = {c.nbar: c for c in diagram.cells}
    assert by_nbar[50].successes == spec.trials  # generous oversampling
    assert by_nbar[2].successes == 0  # m = 5 is below the dof count
    assert diagram.nbar_full == 50
    assert diagram.nbar_zero == 2


def test_single_trial_replay_matches_sweep():
    spec = _small_spec()
    diagram = run_phase_diagram(spec, workers=1)
    replayed = [run_single_trial(spec, 50, t) for t in range(spec.trials)]
    cell = next(c for c in diagram.cells if c.nbar == 50)
    assert sum(1 for ok, _, _ in replayed if ok) == cell.successes
    assert np.isclose(
        float(np.mean([it for _, it, _ in replayed])), cell.mean_iterations
    )
    assert np.isclose(
        float(np.mean([err for _, _, err in replayed])), cell.mean_error
    )


def test_trial_streams_are_disjoint():
    spec = _small_spec()
    X0a, Aa, ya = measurements_for(spec, 10, 0)
    X0b, Ab, yb = measurements_for(spec, 10, 1)
    assert not np.array_equal(X0a, X0b)
    assert not np.array_equal(Aa.matrix, Ab.matrix)
    X0c, Ac, yc = measurements_for(spec, 10, 0)
    assert np.array_equal(X0a, X0c)
    assert np.array_equal(ya, yc)


def test_completion_resamples_index_set_per_trial():
    spec = _small_spec(ensemble="completion")
    _, A0, _ = measurements_for(spec, 50, 0)
    _, A1, _ = measurements_for(spec, 50, 1)
    assert not np.array_equal(np.sort(A0.omega), np.sort(A1.omega))


def test_emit_and_load_roundtrip(tmp_path):
    spec = _small_spec()
    diagram = run_phase_diagram(spec, workers=1)
    for name in ("out.csv", "out.json"):
        path = tmp_path / name
        emit_results(diagram, path)
        rows = load_results(path)
        assert [r["nbar"] for r in rows] == sorted(r["nbar"] for r in rows)
        assert len(rows) == len(diagram.cells)
        for row, cell in zip(rows, sorted(diagram.cells, key=lambda c: c.nbar)):
            assert row["type"] == "gaussian"
            assert row["shape"] == "6x6x6"
            assert row["rank"] == "1,1,1"
            assert row["variant"] == "ntiht"
            assert row["nbar"] == cell.nbar
            assert row["m"] == cell.m
            assert row["successes"] == cell.successes
            assert row["trials"] == cell.trials
            assert np.isclose(row["mean_iters"], cell.mean_iterations)
            assert np.isclose(row["mean_error"], cell.mean_error)


def test_emit_csv_column_order(tmp_path):
    spec = _small_spec()
    diagram = run_phase_diagram(spec, workers=1)
    path = tmp_path / "cols.csv"
    emit_results(diagram, path)
    header = path.read_text().splitlines()[0]
    assert header == "type,shape,rank,variant,nbar,m,successes,trials,mean_iters,mean_error"


def test_emit_error_paths(tmp_path):
    spec = _small_spec()
    diagram = run_phase_diagram(spec, workers=1)
    diagram.cells = []
    with pytest.raises(ValueError):
        emit_results(diagram, tmp_path / "x.csv")
    diagram2 = run_phase_diagram(spec, workers=1)
    with pytest.raises(OSError):
        emit_results(diagram2, tmp_path / "nodir" / "deep" / "x.csv")


def test_monotone_success_trend_on_seeded_sweep():
    spec = _small_spec(grid=(5, 12, 25, 50), trials=6)
    diagram = run_phase_diagram(spec, workers=2)
    rates = [c.rate for c in diagram.cells]
    for later, earlier in zip(rates[1:], rates[:-1]):
        assert later >= earlier - 0.1

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import load_results, probe_ranks
from tiht.experiments import (
    ExperimentSpec,
    TrialRecord,
    emit_results,
    generate_test_tensor,
    measurement_count,
    measurements_for,
    resolve_workers,
    run_phase_diagram,
    run_single_trial,
    success_threshold,
    trial_record,
)
from tiht.measurements import ENSEMBLES, GaussianEnsemble
from tiht.solvers import SolverConfig, tiht_run
from tiht.tensors import frobenius_norm


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
    assert measurement_count(spec.shape, 10) == math.ceil(216 * 10 / 100)
    assert measurement_count(spec.shape, 1) == 3
    assert spec.threshold == 1e-3
    assert _small_spec(ensemble="completion").threshold == 2.5e-3
    with pytest.raises(ValueError):
        _small_spec(grid=(0, 10))
    with pytest.raises(ValueError, match="grid"):
        _small_spec(grid=())
    with pytest.raises(ValueError):
        _small_spec(trials=0)
    with pytest.raises(ValueError):
        _small_spec(ensemble="bernoulli")


def test_success_threshold_rejects_an_unknown_ensemble():
    with pytest.raises(ValueError, match="'bogus'") as excinfo:
        success_threshold("bogus")
    assert all(kind in str(excinfo.value) for kind in ENSEMBLES)


def test_spec_is_the_solver_config_of_its_trials():
    spec = _small_spec(max_iters=60)
    assert isinstance(spec, SolverConfig)
    X0, A, y = measurements_for(spec, 10, 0)
    explicit = SolverConfig(rank=(1, 1, 1), variant="ntiht", format="hosvd", max_iters=60, conv_tol=1e-4)
    ran, expected = tiht_run(A, y, spec, X_ref=X0), tiht_run(A, y, explicit, X_ref=X0)
    for name in ("mus", "residuals", "step_norms", "eps_ratios", "tensor"):
        assert np.array_equal(getattr(ran, name), getattr(expected, name))
    assert ran.iterations == expected.iterations and ran.trace[-1].X is None
    # a sweep keeps no iterates, and its fields are keyword-only
    with pytest.raises(TypeError):
        _small_spec(keep_iterates=True)
    with pytest.raises(TypeError):
        ExperimentSpec((6, 6, 6), (1, 1, 1), "gaussian", "ntiht")
    # the shortened copy the benchmark warms up with is validated like any spec
    shortened = dataclasses.replace(spec, trials=1, max_iters=2)
    assert (shortened.trials, shortened.max_iters, shortened.grid) == (1, 2, spec.grid)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, max_iters=0)


def test_spec_sorts_and_deduplicates_its_grid():
    spec = _small_spec(grid=(60, 50, 60), trials=1, max_iters=50)
    assert spec.grid == (50, 60)
    assert [c.nbar for c in run_phase_diagram(spec, workers=1).cells] == [50, 60]


def test_spec_rejects_a_negative_seed():
    # numpy rejects negative seed entries only when the first trial draws, inside a worker
    with pytest.raises(ValueError, match="seed"):
        _small_spec(seed=-1)
    assert _small_spec(seed=0).seed == 0


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
    # one record per (nbar, trial), in task order
    assert [(r.nbar, r.trial) for r in serial.records] == [(n, t) for n in spec.grid for t in range(spec.trials)]
    for workers in (2, 32):  # 32 workers are capped at the 8 tasks
        parallel = run_phase_diagram(spec, workers=workers)
        assert parallel.records == serial.records
        for a, b in zip(serial.cells, parallel.cells):
            assert (a.nbar, a.m, a.successes, a.trials) == (b.nbar, b.m, b.successes, b.trials)
            assert a.mean_iterations == b.mean_iterations
            assert a.mean_error == b.mean_error


def test_pool_is_sized_by_its_tasks(monkeypatch):
    # under fork every worker starts with the first task, so 32 workers for 2 trials forked 32 processes
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    spec = _small_spec(grid=(50,), trials=2, max_iters=30)
    assert run_phase_diagram(spec, workers=32).cells == run_phase_diagram(spec, workers=1).cells
    monkeypatch.setenv("TIHT_THREADS", "32")
    run_phase_diagram(spec)
    run_phase_diagram(dataclasses.replace(spec, trials=1))  # one task runs in process
    assert sizes == [2, 2]


def test_malformed_tiht_threads_is_named(monkeypatch):
    monkeypatch.setenv("TIHT_THREADS", "two")
    with pytest.raises(ValueError, match="TIHT_THREADS must be an integer, got 'two'"):
        resolve_workers()
    assert resolve_workers(3) == 3  # an explicit count does not read the variable
    monkeypatch.setenv("TIHT_THREADS", " 3 ")
    assert resolve_workers() == 3


@pytest.mark.parametrize("workers", [2.5, 0, -1, True, "3"])
def test_an_explicit_worker_count_is_a_count(workers):
    with pytest.raises(ValueError, match=f"^workers must be an integer >= 1, got {workers!r}$"):
        resolve_workers(workers)


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_a_nonpositive_tiht_threads_is_named(threads, monkeypatch):
    monkeypatch.setenv("TIHT_THREADS", threads)
    with pytest.raises(ValueError, match=f"^TIHT_THREADS must be an integer >= 1, got {threads}$"):
        resolve_workers()


_SERIAL_FOOTPRINT = """
import sys
import tiht.cli
from tiht.experiments import ExperimentSpec, run_phase_diagram

tiht.cli.main(["recover", "--shape", "4x4x4", "--rank", "1,1,1", "--nbar", "60", "--max-iters", "5"])
spec = ExperimentSpec(shape=(4, 4, 4), rank=(1, 1, 1), grid=(60,), trials=2, max_iters=5)
run_phase_diagram(spec, workers=1)
print(sorted(m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules))
"""


def test_recover_and_serial_sweeps_do_not_load_the_process_pool():
    # the pool's modules cost about 2 MB of RSS; only a pooled sweep may pay for them
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _SERIAL_FOOTPRINT], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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
    assert sum(1 for r in replayed if r.success) == cell.successes
    assert np.isclose(
        float(np.mean([r.iterations for r in replayed])), cell.mean_iterations
    )
    assert np.isclose(
        float(np.mean([r.final_error for r in replayed])), cell.mean_error
    )


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def test_a_record_is_its_run_field_by_field():
    spec = _small_spec()
    records = run_phase_diagram(spec, workers=1).records
    assert any(r.retries for r in records) and any(r.stop_reason == "max_iters" for r in records)
    for record in records:
        X0, A, y = measurements_for(spec, record.nbar, record.trial)
        run = tiht_run(A, y, spec, X_ref=X0, success_threshold=spec.threshold)
        retries = [s.retries for s in run.trace]
        assert record == TrialRecord(
            nbar=record.nbar,
            trial=record.trial,
            success=run.success,
            iterations=run.iterations,
            final_error=run.final_error,
            stop_reason=run.stop_reason,
            x0_norm=frobenius_norm(X0),
            last_step_norm=run.step_norms[-1],
            retries=sum(retries),
            most_retries=max(retries),
            retry_iterations=np.count_nonzero(retries),
            mu_ratio=run.mus[-1] / run.mus[0],
            first_mu_fallback=run.trace[0].mu_fallback,
            max_eps_ratio=run.eps_ratios.max(),
            digest=_digest(run.mus, run.residuals, run.step_norms, np.array(retries, dtype=np.int64), run.tensor),
        )
        # plain values only, so the pool pickles little and records compare with ==
        assert {type(v) for v in record} <= {int, float, bool, str}


def test_a_run_stopped_before_its_first_iteration_records_none():
    # the gradient A*(y) overflows, so the run diverges at iteration 0
    X0 = generate_test_tensor((3, 3, 3), (1, 1, 1), seed=0)
    A = GaussianEnsemble(1e250 * np.eye(27), (3, 3, 3))
    run = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1)), X_ref=X0, success_threshold=1e-3)
    empty = np.array([])
    assert trial_record(7, 3, X0, run) == TrialRecord(
        nbar=7,
        trial=3,
        success=False,
        iterations=0,
        final_error=frobenius_norm(X0),
        stop_reason="diverged",
        x0_norm=frobenius_norm(X0),
        last_step_norm=None,
        retries=0,
        most_retries=None,
        retry_iterations=0,
        mu_ratio=None,
        first_mu_fallback=None,
        max_eps_ratio=None,
        digest=_digest(empty, empty, empty, np.array([], dtype=np.int64), np.zeros((3, 3, 3))),
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

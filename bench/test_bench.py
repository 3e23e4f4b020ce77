"""The benchmark's own tests: every workload at reduced size, the traced
round's invariants, and the output checks rejecting corrupted outputs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tiht  # noqa: E402
import tiht.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrument, layer_metrics  # noqa: E402

SCALES = {"sweep-ntiht": 0.05, "sweep-ctiht": 0.02, "recover-formats": 1 / 20}


def small(name, seed=workloads.DEFAULT_SEED):
    workload = workloads.WORKLOADS[name](seed, SCALES[name])
    workload.setup(tiht)
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    workload = small(name)
    rounds = [workload.run_round(), workload.run_round()]
    failed, messages = workload.check(rounds)
    assert not failed and not messages, messages
    assert all(not r.failed for r in rounds)
    assert rounds[0].iterations == rounds[1].iterations > 0
    assert all(w > 0 for r in rounds for w in r.walls)


def traced_round(workload):
    tracer = Tracer()
    instrument(tracer, tiht)
    try:
        workload.run_round()
    finally:
        tracer.restore()
    return layer_metrics(tracer)


def test_traced_counts_repeat_and_ctiht_invariants():
    svd = np.linalg.svd
    workload = small("sweep-ctiht")
    first, second = traced_round(workload), traced_round(workload)
    assert np.linalg.svd is svd and tiht.solvers.truncate is tiht.formats.truncate
    exact = [n for n in first if n.endswith(".calls") or n in ("solvers.iterations", "solvers.safeguard_retries")]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["solvers.truncations_per_iter"][0] == 1.0
    assert first["solvers.build_Mj.calls"][0] == 0
    assert first["experiments.instance.calls"][0] == sum(c.trials for c in workload.cells)


def test_traced_recover_round_sees_every_layer():
    metrics = traced_round(small("recover-formats"))
    for name in ("measurements.apply", "formats.truncate", "linalg.svd", "solvers.build_Mj", "solvers.projector"):
        assert metrics[f"{name}.calls"][0] > 0
    assert metrics["cli.self_s"][0] > 0
    assert metrics["experiments.harness.self_s"][0] == 0


def test_rank_check_rejects_an_iterate_of_too_high_rank():
    X = tiht.generate_test_tensor((6, 6, 6), (1, 1, 1), seed=1)
    assert checks.check_rank(X, "hosvd", (1, 1, 1), exact=True) == []
    noisy = X + 1e-6 * np.random.default_rng(2).standard_normal(X.shape)
    for fmt, rank in (("hosvd", (1, 1, 1)), ("tt", (1, 1)), ("ht", 1)):
        assert checks.check_rank(noisy, fmt, rank)


def test_measurement_check_rejects_a_perturbed_vector():
    shape, m, seed = (4, 5, 6), 40, [7, 1]
    X0 = tiht.generate_test_tensor(shape, (2, 2, 2), seed=3)
    for kind in ("gaussian", "fourier", "completion"):
        y = tiht.draw(kind, shape, m, seed).apply(X0)
        apply = checks.measurement_map(kind, shape, m, seed)
        assert checks.check_measurements(apply, X0, y) == []
        y = y.copy()
        y[5] += 1e-9 * np.linalg.norm(y)
        assert checks.check_measurements(apply, X0, y)


def test_flag_check_rejects_a_flipped_success_flag():
    X0 = tiht.generate_test_tensor((4, 4, 4), (1, 1, 1), seed=4)
    X = X0 + 1e-4 / 8
    error = float(np.linalg.norm(X - X0))
    assert checks.check_recovery_flag(X, X0, 1e-3, True, error) == []
    assert checks.check_recovery_flag(X, X0, 1e-3, False, error)


def test_workload_checks_flag_corrupted_outputs():
    recover = small("recover-formats")
    rnd = recover.run_round()
    rnd.outcomes[3] = dict(rnd.outcomes[3], success=not rnd.outcomes[3]["success"])
    failed, _ = recover.check([rnd])
    assert failed == {3}

    sweep = small("sweep-ctiht")
    rnd = sweep.run_round()
    rnd.outcomes[0] = dataclasses.replace(rnd.outcomes[0], successes=1)  # a recovery below the transition
    failed, _ = sweep.check([rnd])
    assert failed == {(0, t) for t in range(sweep.cells[0].trials)}


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-ctiht", "--seconds", "1"],
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

import json
import subprocess
import sys

import pytest

from oracles import load_results
from tiht.cli import main


def test_bounds_subcommand(capsys):
    code = main(
        "bounds --format hosvd --d 3 --n 10 --r 2 --delta 0.5 --fail-prob 0.01".split()
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sample_complexity"] == pytest.approx(298.8225, rel=5e-4)
    assert payload["dof_term"] == pytest.approx(74.7056, rel=5e-4)
    assert payload["storage_count"] == 68


def test_bounds_with_convergence_constants(capsys):
    code = main("bounds --a 0.5 --variant ctiht --delta3r 0.1 --opnorm 2.0".split())
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["convergence"]["delta_of_a"] == 0.125
    assert payload["convergence"]["eps_of_a"] == pytest.approx(1.5326e-3, rel=5e-4)


def test_recover_subcommand(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "recover",
            "--shape", "6x6x6",
            "--rank", "1,1,1",
            "--ensemble", "gaussian",
            "--variant", "ntiht",
            "--nbar", "40",
            "--seed", "3",
            "--trace-out", str(trace),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 87  # ceil(216 * 40 / 100)
    assert payload["success"] is True
    assert payload["stop_reason"] == "converged"
    header = trace.read_text().splitlines()[0]
    assert header == "iteration,residual,step_norm,mu,eps_ratio"


def test_recover_requires_exactly_one_size_flag():
    with pytest.raises(SystemExit):
        main(["recover", "--shape", "4x4", "--rank", "1,1"])
    with pytest.raises(SystemExit):
        main(["recover", "--shape", "4x4", "--rank", "1,1", "--nbar", "10", "--m", "5"])


def test_phase_subcommand_writes_results(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    code = main(
        [
            "phase",
            "--shape", "6x6x6",
            "--rank", "1,1,1",
            "--grid", "10,50",
            "--trials", "3",
            "--seed", "11",
            "--max-iters", "300",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = load_results(out)
    assert [r["nbar"] for r in rows] == [10, 50]
    printed = capsys.readouterr().out
    assert "nbar_full=" in printed


def test_phase_json_results_are_read_back(tmp_path, capsys):
    # the suffix alone picks the format, for writing as for reading
    out = tmp_path / "cells.json"
    code = main(
        "phase --shape 4x4 --rank 1,1 --grid 50 --trials 2 --seed 5 --max-iters 200".split()
        + ["--out", str(out)]
    )
    assert code == 0
    rows = load_results(out)
    assert [(r["nbar"], r["trials"]) for r in rows] == [(50, 2)]


@pytest.mark.parametrize(
    "flag", ["--variant=ctiht", "--max-iters=3", "--conv-tol=1e-3", "--threshold=1e-3"]
)
def test_trip_rejects_solver_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trip", "--shape", "5x5x5", "--rank", "1,1,1", "--m", "100", "--samples", "4", flag])
    assert exc.value.code == 2


def test_trip_subcommand(capsys):
    code = main(
        "trip --shape 5x5x5 --rank 1,1,1 --m 100 --samples 40 --seed 2".split()
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_hat"] > 0
    assert payload["samples"] == 40


def test_grid_range_parsing(capsys):
    code = main(
        "phase --shape 4x4 --rank 1,1 --grid 40:60:10 --trials 2 --seed 5 --max-iters 200".split()
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "nbar= 40" in out and "nbar= 50" in out and "nbar= 60" in out


def test_empty_grid_exits_with_status_2(capsys):
    # 10:5 holds no percentage; it must not fall back to the default grid
    with pytest.raises(SystemExit) as exc:
        main("phase --shape 4x4 --rank 1,1 --grid 10:5 --trials 1".split())
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_exit_code_2_on_bad_arguments():
    proc = subprocess.run(
        [sys.executable, "-m", "tiht.cli", "phase", "--ensemble", "sparse"],
        capture_output=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "tiht.cli", "frobnicate"], capture_output=True
    )
    assert proc.returncode == 2
    # runtime argument errors (not just parse errors) also exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "tiht.cli", "trip", "--shape", "2x2", "--rank", "1,1",
         "--ensemble", "completion", "--m", "100", "--samples", "5"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tiht.cli", "bounds", "--d", "3", "--n", "4", "--r", "1"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert b"sample_complexity" in proc.stdout


@pytest.mark.parametrize(
    "extra",
    [
        ["--shape", "4x4", "--rank", "1,1"],  # neither --nbar nor --m
        ["--format", "tt", "--rank", "1,1,1", "--nbar", "50"],  # TT rank of length d
        ["--format", "tt", "--rank", "1,1,1,1", "--nbar", "50"],
        ["--format", "ht", "--rank", "1,2", "--nbar", "50"],  # non-uniform HT rank
        ["--format", "ht", "--rank", "2,2,2", "--nbar", "50"],  # an HT rank is one int
    ],
    ids=["no-size", "tt-length-d", "tt-length-4", "ht-non-uniform", "ht-tuple"],
)
def test_recover_argument_errors_exit_with_status_2(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--shape", "4x4x4", *extra])
    assert exc.value.code == 2
    assert "tiht recover:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, rank",
    [
        (["recover", "--format", "tt", "--nbar", "50"], [1, 1]),
        (["recover", "--format", "ht", "--nbar", "50"], 1),
        (["recover", "--shape", "4x4x4x4", "--nbar", "50"], [1, 1, 1, 1]),
        (["trip", "--format", "ht", "--shape", "4x4x4", "--m", "20", "--samples", "2"], 1),
    ],
    ids=["recover-tt", "recover-ht", "recover-order-4", "trip-ht"],
)
def test_default_rank_is_all_ones_for_the_format_and_shape(argv, rank, capsys):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == rank


def test_phase_default_rank_is_all_ones_for_the_format_and_shape(tmp_path):
    out = tmp_path / "cells.json"
    code = main(
        "phase --format tt --shape 4x4x4 --grid 50 --trials 1 --max-iters 50".split() + ["--out", str(out)]
    )
    assert code == 0
    assert load_results(out)[0]["rank"] == "1,1"


@pytest.mark.parametrize(
    "command, threshold",
    [("recover", "0"), ("recover", "-1e-3"), ("phase", "0"), ("phase", "-1e-3")],
)
def test_nonpositive_threshold_exits_with_status_2(command, threshold, capsys):
    # both commands take an explicit threshold as given, so 0 is rejected
    # rather than replaced by the ensemble's default
    size = ["--nbar", "20"] if command == "recover" else ["--grid", "20", "--trials", "1"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--shape", "4x4x4", *size, f"--threshold={threshold}"])
    assert exc.value.code == 2
    assert "threshold" in capsys.readouterr().err

import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import load_results
from tiht import cli, experiments, measurements
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


def test_bounds_at_a_large_order_prints_json_or_exits_with_status_2(capsys):
    # at r = 1 every bound is finite at d = 400; past the float range a bound names its formula and d, n, r:
    # r**d at r = 10 is an int too large for a float, and (log n^d)^2 at d = 10**100 overflows to inf, no JSON
    assert main("bounds --d 400".split()) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 400
    for d, r, formula in ((400, 10, "sample_complexity"), (10**100, 1, "fourier_sample_complexity")):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--d", str(d), "--r", str(r)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"tiht bounds: {formula} leaves the float range at d={d}, n=10, r={r}\n"


def test_convergence_constants_past_the_float_range_name_their_inputs(capsys):
    # a squared term of the convergence constants overflows at opnorm 1e300
    with pytest.raises(SystemExit) as exc:
        main("bounds --a 0.5 --opnorm 1e300".split())
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "tiht bounds: convergence_constants leaves the float range at variant=ntiht, a=0.5, delta3r=0.0, opnorm=1e+300\n"
    )


def test_a_bound_past_the_float_range_builds_no_huge_integer(capsys):
    # 2**(10**8) is past the float range: the bound says so without building the 12.5 MB integer first
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main("bounds --d 100000000 --r 2".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert capsys.readouterr().err == "tiht bounds: sample_complexity leaves the float range at d=100000000, n=10, r=2\n"
    assert peak < 1_000_000


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


def test_trace_out_follows_the_json_suffix_rule(tmp_path, capsys):
    # the same seeded run, written once as CSV and once as JSON: the same rows in both
    argv = "recover --shape 6x6x6 --nbar 40 --seed 3 --trace-out".split()
    assert main([*argv, str(tmp_path / "t.csv")]) == 0
    assert main([*argv, str(tmp_path / "t.json")]) == 0
    capsys.readouterr()
    with open(tmp_path / "t.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads((tmp_path / "t.json").read_text())
    assert isinstance(json_rows, list) and len(json_rows) > 1
    assert [{k: "" if v is None else str(v) for k, v in row.items()} for row in json_rows] == csv_rows


def test_recover_help_states_the_trace_out_suffix_rule(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--help"])
    assert exc.value.code == 0
    assert "write the iteration trace: JSON for a .json path, else CSV" in " ".join(capsys.readouterr().out.split())


def test_a_command_that_fails_after_the_output_check_leaves_no_file(tmp_path, capsys):
    # m > N fails in the completion draw, after every output path was checked
    out, trace = tmp_path / "o.json", tmp_path / "t.csv"
    argv = ["recover", "--ensemble", "completion", "--m", "5000", "--out", str(out), "--trace-out", str(trace)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()
    # an output file that was there keeps its content
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert out.read_text() == "kept\n" and not trace.exists()


def test_phase_run_settings_take_the_library_defaults(monkeypatch, capsys):
    # none of the eight run-setting flags given: the spec is the one the library builds from shape, rank and grid
    specs = []

    def capture(spec, workers=None):
        specs.append(spec)
        return experiments.PhaseDiagram(spec=spec, cells=[])

    monkeypatch.setattr("tiht.experiments.run_phase_diagram", capture)
    assert main("phase --shape 4x4 --rank 1,1 --grid 50".split()) == 0
    # without --grid the sweep runs 1..30 by 1, then 35..100 by 5
    assert main("phase --shape 4x4 --rank 1,1".split()) == 0
    default_grid = tuple(range(1, 31)) + tuple(range(35, 101, 5))
    assert specs == [experiments.ExperimentSpec(shape=(4, 4), rank=(1, 1), grid=g) for g in ((50,), default_grid)]


def test_in_process_calls_are_independent(tmp_path, capsys):
    # every call parses with one parser, built once per process: a first
    # call's --out must not leak into a second, nor a bad call into the next
    assert cli._parser() is cli._parser()
    out = tmp_path / "first.json"
    argv = ["recover", "--shape", "4x4x4", "--nbar", "60", "--max-iters", "5"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    first = json.loads(out.read_text())
    assert main([*argv, "--format", "tt", "--seed", "2"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert (first["format"], first["rank"]) == ("hosvd", [1, 1, 1])
    assert (second["format"], second["rank"]) == ("tt", [1, 1])
    assert json.loads(out.read_text()) == first
    for bad in (["--ensemble", "sparse"], ["--rank", "1,1"]):  # a parse error, then a rank error
        with pytest.raises(SystemExit) as exc:
            main([*argv, *bad])
        assert exc.value.code == 2, bad
    capsys.readouterr()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == first


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


def test_phase_out_in_a_missing_directory_exits_before_any_trial(tmp_path, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("tiht.experiments.run_phase_diagram", no_sweep)
    out = tmp_path / "missing" / "cells.csv"
    with pytest.raises(SystemExit) as exc:
        main("phase --shape 4x4 --rank 1,1 --grid 50 --trials 1".split() + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count(str(out)) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("recover --nbar 8 --seed 2016", "--trace-out"),
        ("recover --nbar 8 --seed 2016", "--out"),
        ("trip --m 100 --samples 4", "--out"),
    ],
)
def test_an_unwritable_output_exits_before_any_draw(argv, flag, tmp_path, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw ran")

    monkeypatch.setattr("tiht.measurements.draw", no_draw)
    monkeypatch.setattr("tiht.experiments.random_rank_r_tensor", no_draw)
    out = tmp_path / "missing" / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), flag, str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count(str(out)) == 1


@pytest.mark.parametrize("out, trace_out", [("x.json", "x.json"), ("./x.json", "x.json")])
def test_two_outputs_naming_one_file_exit_before_any_draw(out, trace_out, tmp_path, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw ran")

    monkeypatch.setattr("tiht.measurements.draw", no_draw)
    monkeypatch.setattr("tiht.experiments.random_rank_r_tensor", no_draw)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--shape", "6x6x6", "--nbar", "40", "--seed", "3", "--out", out, "--trace-out", trace_out])
    assert exc.value.code == 2
    assert "name one file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_trip_ensemble_shares_no_stream_with_a_sample(monkeypatch):
    # numpy pads seed lists with zeros, so the seed itself is sample 0's stream [seed, 0]
    seeds, draw = [], measurements.draw
    monkeypatch.setattr(measurements, "draw", lambda *args: seeds.append(args[3]) or draw(*args))
    assert main("trip --shape 5x5x5 --rank 1,1,1 --m 100 --samples 40 --seed 7".split()) == 0
    ensemble = np.random.default_rng(seeds[0]).standard_normal(8)
    for i in range(40):
        assert not np.array_equal(ensemble, np.random.default_rng([7, i]).standard_normal(8))


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


@pytest.mark.parametrize("grid, field", [("30,,60", "''"), ("30,60:40", "'60:40'"), ("1:2:3:4", "'1:2:3:4'")])
def test_grid_field_without_a_percentage_exits_with_status_2(grid, field, capsys):
    # an empty field, an empty range and a range of four fields are errors, not skipped
    with pytest.raises(SystemExit) as exc:
        main(["phase", "--shape", "4x4", "--rank", "1,1", "--grid", grid, "--trials", "1"])
    assert exc.value.code == 2
    assert f"grid field {field}" in capsys.readouterr().err


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
    # an empty field in an integer list is an error, not a field to skip
    for flags in (["--shape", "10xx10"], ["--shape", "10x"], ["--shape", "4x4x4", "--rank", "1,,1,"]):
        proc = subprocess.run(
            [sys.executable, "-m", "tiht.cli", "recover", *flags, "--nbar", "50"], capture_output=True
        )
        assert proc.returncode == 2, flags
        assert b"empty field" in proc.stderr, flags
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

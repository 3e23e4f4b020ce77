"""The committed tools run against the working tree's API."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tiht

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TRACE_IDENTITY = TOOLS / "trace_identity.py"


def _tool(name="trace_identity"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_trace_identity_dumps_the_ht_and_draw_arrays():
    # an API change that breaks the identity tool fails here, not at the next comparison
    tool = _tool()
    arrays = tool.ht_arrays(tiht) | tool.draw_arrays(tiht)
    # 204 HT draws, reconstructions and node frames; 36 HOSVD and TT draws and
    # 96 HOSVD and TT reconstructions and frames; 48 projector images, one per truncation
    assert len(arrays) == 384
    assert sum(name.endswith("/projector") for name in arrays) == 48
    assert all(np.all(np.isfinite(a)) for a in arrays.values())


def test_trace_identity_dumps_a_run_for_every_exit_to_diverged():
    # the sweep cells and recover instances end only converged or max_iters, so
    # without these runs the CI gate would not see the diverging exits
    arrays = _tool().diverging_arrays(tiht)
    assert len(arrays) == 28  # four runs, seven arrays each
    assert [str(a) for n, a in arrays.items() if n.endswith("/stop_reason")] == ["diverged"] * 4


def test_trace_identity_dumps_the_bytes_of_every_cli_command():
    # the stdout and every output file of recover (with and without --out), phase (CSV and JSON), trip and bounds
    arrays = _tool().cli_arrays(tiht)
    assert len(arrays) == 11
    assert [n for n, a in arrays.items() if not a.size] == ["cli/recover-out/stdout"]  # --out takes the summary
    assert bytes(arrays["cli/recover/stdout"]) == bytes(arrays["cli/recover-out/s.json"])
    assert bytes(arrays["cli/phase-csv/stdout"]) == bytes(arrays["cli/phase-json/stdout"])


def test_trace_identity_compare_exit_status_gates_on_every_array(tmp_path):
    # the CI trace-identity job passes or fails on this exit status alone
    def compare(a, b):
        paths = []
        for name, arrays in (("a.npz", a), ("b.npz", b)):
            np.savez(tmp_path / name, **arrays)
            paths.append(str(tmp_path / name))
        return subprocess.run(
            [sys.executable, str(TRACE_IDENTITY), "compare", *paths], capture_output=True, text=True
        )

    arrays = {"run/mus": np.array([1.0, 0.5, np.nan]), "run/stop_reason": np.array("converged")}
    same = compare(arrays, arrays)
    assert same.returncode == 0, same.stdout
    assert "2/2 arrays identical" in same.stdout

    changed = compare(arrays, arrays | {"run/mus": np.array([1.0, 0.25, np.nan])})
    assert changed.returncode == 1
    assert changed.stdout.splitlines()[0] == "run/mus: differs or is missing on one side"
    assert "1/2 arrays identical" in changed.stdout

    # equal values are not enough: a dtype change and a signed zero are differences too
    for a, b in ((np.zeros(3), np.zeros(3, complex)), (np.array(0.0), np.array(-0.0))):
        strict = compare({"x": a}, {"x": b})
        assert strict.returncode == 1, (a, b)
        assert "0/1 arrays identical" in strict.stdout


def _run_doc(correct=True, failed=0, **metrics):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
        "environment": {"nproc": 2},
    }


def test_bench_pairs_summary_counts_wins_by_direction_and_gives_exclusive_quartiles():
    tool = _tool("bench_pairs")
    parent_rss = [48.6, 48.5, 48.7, 48.6, 48.4]
    change_rss = [46.2, 48.5, 46.0, 46.1, 46.3]  # pair 2 is a tie
    parent_rate = [40.0, 41.0, 42.0, 43.0, 44.0]
    change_rate = [39.0, 42.0, 42.0, 45.0, 50.0]  # worse, better, tie, better, better
    pairs = [
        {"parent": _run_doc(peak_rss_mb=pr, trials_per_s=pt), "change": _run_doc(peak_rss_mb=cr, trials_per_s=ct)}
        for pr, cr, pt, ct in zip(parent_rss, change_rss, parent_rate, change_rate)
    ]
    benchmark = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    better, bound = tool.directions(benchmark), tool.bounds(benchmark)
    assert better["peak_rss_mb"] == "lower" and better["trials_per_s"] == "higher"
    assert bound["peak_rss_mb"] == 0.05 and bound["trials_per_s"] == 0.25
    summary = tool.summarize(pairs, better, bound)
    assert set(summary) == {"peak_rss_mb", "trials_per_s"}  # metrics the runs lack are left out

    rss = summary["peak_rss_mb"]
    assert rss["better"] == "lower"
    assert rss["change_wins"] == 4 and rss["pairs"] == 5  # lower wins; the tie counts for neither side
    # exclusive quartiles of 48.4 48.5 48.6 48.6 48.7: ranks 1.5 and 4.5
    assert rss["parent"]["median"] == 48.6
    assert np.isclose(rss["parent"]["q1"], 48.45) and np.isclose(rss["parent"]["q3"], 48.65)
    assert np.isclose(rss["parent"]["iqr"], 0.2)
    assert np.isclose(rss["median_ratio_change_over_parent"], 46.2 / 48.6)

    rate = summary["trials_per_s"]
    assert rate["change_wins"] == 3
    assert rate["change"]["median"] == 42.0
    assert np.isclose(rate["change"]["q1"], 40.5) and np.isclose(rate["change"]["q3"], 47.5)

    assert tool.all_clean([p[s] for p in pairs for s in ("parent", "change")])
    assert not tool.all_clean([_run_doc(), _run_doc(failed=1)])
    assert not tool.all_clean([_run_doc(correct=False)])


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # parent IQR 10 of median 20 exceeds the 0.25 bound: a worse change cannot be told from the spread
        ([14.0, 16.0, 20.0, 24.0, 26.0], [30.0, 31.0, 32.0, 33.0, 34.0], "unresolved"),
        # ... unless every change run beats every parent run
        ([14.0, 16.0, 20.0, 24.0, 26.0], [9.0, 10.0, 11.0, 12.0, 13.0], "within bound"),
        # a tight parent and a median 30% worse
        ([19.8, 19.9, 20.0, 20.1, 20.2], [25.0, 25.5, 26.0, 26.5, 27.0], "worse than bound"),
        # a tight parent and a median 20% worse
        ([19.8, 19.9, 20.0, 20.1, 20.2], [23.0, 23.5, 24.0, 24.5, 25.0], "within bound"),
    ],
    ids=["wide-parent", "wide-parent-every-run-better", "worse", "within"],
)
def test_bench_pairs_verdict_against_the_bound(parent, change, expected):
    tool = _tool("bench_pairs")
    pairs = [{"parent": _run_doc(recover_p50_ms=p), "change": _run_doc(recover_p50_ms=c)} for p, c in zip(parent, change)]
    entry = tool.summarize(pairs, {"recover_p50_ms": "lower"}, {"recover_p50_ms": 0.25})["recover_p50_ms"]
    assert (entry["bound"], entry["verdict"]) == (0.25, expected)
    # the same values as a higher-is-better metric, mirrored around 0: the verdict does not depend on the direction
    mirrored = [{side: _run_doc(rate=-pair[side]["metrics"]["recover_p50_ms"]["value"]) for side in pair} for pair in pairs]
    assert tool.summarize(mirrored, {"rate": "higher"}, {"rate": 0.25})["rate"]["verdict"] == expected


_STUB_RUN = """
import argparse, json, pathlib, sys
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--trace", "--out"):
    p.add_argument(flag)
a = p.parse_args()
side = pathlib.Path.cwd().name
with open(pathlib.Path.cwd().parent / "order.log", "a") as log:
    log.write(f"{side} {a.trace} {sys.executable}\\n")
rss = 48.0 if side == "parent" else 46.0
doc = {"workload": a.workload, "seed": int(a.seed), "trace": int(a.trace), "correct": side == "parent" or a.trace == "0",
       "attempted": 1, "failed": 0, "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}}, "first_round": []}
pathlib.Path(a.out).write_text(json.dumps(doc))
"""


def test_bench_pairs_alternates_sides_and_fails_on_an_incorrect_run(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(_STUB_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text((TOOLS.parent / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH.json"
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--seed", "7", "--pairs", "3"]
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "bench_pairs.py"), *args, "--out", str(out), "--claim", "peak_rss_mb"],
        capture_output=True, text=True, env={**os.environ, "PATH": str(tmp_path)},  # no python3 on PATH
    )
    # the stub's traced change run reports correct: false
    assert proc.returncode == 1, proc.stderr
    order = [line.split(" ", 2) for line in (tmp_path / "order.log").read_text().splitlines()]
    sides = ["parent 0", "change 0", "change 0", "parent 0", "parent 0", "change 0", "parent 1", "change 1"]
    assert [f"{side} {trace}" for side, trace, _ in order] == sides
    assert {python for _, _, python in order} == {sys.executable}  # the tool's own interpreter, not PATH's
    document = json.loads(out.read_text())
    entry = document["untraced"]["w@7"]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    assert entry["summary"]["peak_rss_mb"]["change_wins"] == 3
    assert entry["summary"]["peak_rss_mb"]["verdict"] == "within bound" and "within bound" in proc.stdout
    assert entry["all_correct"] and entry["failed_operations"] == 0
    assert document["traced"]["w@7"]["layers"]["peak_rss_mb"] == {"parent": 48.0, "change": 46.0, "unit": "MB"}
    assert document["claimed"] == {"workload": "w", "metric": "peak_rss_mb", "seeds": [7]}
    assert "exclusive" in document["quartile_rule"]

    # a second call for the same workload and seed is refused before it runs, and FILE keeps the first
    written = out.read_text()
    again = subprocess.run([sys.executable, str(TOOLS / "bench_pairs.py"), *args, "--out", str(out)],
                           capture_output=True, text=True)
    assert again.returncode != 0 and "already holds w@7" in again.stderr
    assert len((tmp_path / "order.log").read_text().splitlines()) == 8
    assert out.read_text() == written

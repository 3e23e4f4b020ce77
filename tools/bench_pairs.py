"""Alternating parent/change benchmark pairs of two source trees, summarized into one BENCH file.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seed S --pairs 10 --out FILE
        [--claim METRIC] [--about TEXT]

Runs ``bench/run.py --workload W --seed S`` in each tree, under the
interpreter that runs this script and at the benchmark's own run length, with
its ``--out`` in a temporary directory, ``--pairs`` times per side: odd pairs
run the parent first, even pairs the change.  Then it runs ``--trace 1`` once per
side.  For every end-to-end metric of ``BENCHMARK.json`` (read from
CHANGE_TREE, with its ``better`` direction) and each side it reports the
median, q1, q3 and IQR of the untraced runs, the pairs the change wins (a
tie counts for neither side), the ratio of the medians and a verdict against
the metric's ``bound``, the relative worsening the benchmark allows:
``unresolved`` when the parent's IQR exceeds bound x its median, unless every
change run beats every parent run; ``worse than bound`` when the change's
median is worse than the parent's by more than bound x the parent's median;
``within bound`` otherwise.  Each run's document
is kept without its ``first_round`` outcomes: raw metrics, ``correct``,
``failed``, round walls, set-up samples and the environment.

FILE gets ``untraced["W@S"]`` and ``traced["W@S"]``; an existing FILE keeps
its other entries, so one FILE collects several workloads and seeds, one call
each.  A (W, S) that FILE already holds is refused before any run.
``--claim METRIC`` records W, METRIC and S under ``claimed``.  The script
exits 1 if any run is incorrect or has a failed operation, 0 otherwise, and
writes FILE either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

QUARTILE_RULE = (
    "statistics.quantiles(values, n=4), method 'exclusive' (Python's default): "
    "q1 and q3 at ranks (n+1)/4 and 3(n+1)/4 of the sorted values, interpolated linearly"
)
SIDES = ("parent", "change")


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> 'higher' or 'lower' for the end-to-end metrics of a BENCHMARK.json."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def bounds(benchmark: dict) -> dict[str, float]:
    """Metric name -> the relative worsening its end-to-end metric may show, from a BENCHMARK.json."""
    return {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}


def quartiles(values) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(values: dict[str, list[float]], sign: int, bound: float, stats: dict) -> str:
    """'unresolved', 'worse than bound' or 'within bound' for one metric; see the module docstring."""
    parent = stats["parent"]["median"]
    every_run_better = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
    if stats["parent"]["iqr"] > bound * abs(parent) and not every_run_better:
        return "unresolved"
    if sign * (parent - stats["change"]["median"]) > bound * abs(parent):
        return "worse than bound"
    return "within bound"


def summarize(pairs, better: dict[str, str], bound: dict[str, float]) -> dict:
    """Per-metric medians, quartiles, change wins, median ratio and verdict over untraced pairs.

    ``pairs`` is a list of ``{"parent": doc, "change": doc}`` with run documents
    of ``bench/run.py``; ``better`` maps each metric to summarize to its
    direction and ``bound`` to its bound.
    """
    summary = {}
    for name, direction in better.items():
        if not all(name in pair[side]["metrics"] for pair in pairs for side in SIDES):
            continue
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        stats = {side: quartiles(values[side]) for side in SIDES}
        summary[name] = {
            **stats,
            "better": direction,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_ratio_change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "bound": bound[name],
            "verdict": verdict(values, sign, bound[name], stats),
        }
    return summary


def all_clean(docs) -> bool:
    return all(doc["correct"] and doc["failed"] == 0 for doc in docs)


def run(tree: Path, workload: str, seed: int, trace: int, out: Path) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--trace", str(trace), "--out", str(out)]
    subprocess.run(command, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    document = json.loads(out.read_text())
    del document["first_round"]  # one outcome per operation: too large to keep for every run
    return document


def untraced_entry(pairs, better, bound) -> dict:
    docs = [pair[side] for pair in pairs for side in SIDES]
    return {
        "summary": summarize(pairs, better, bound),
        "attempted_operations": sum(doc["attempted"] for doc in docs),
        "failed_operations": sum(doc["failed"] for doc in docs),
        "all_correct": all(doc["correct"] for doc in docs),
        "pairs": [{"pair": i, "first": "parent" if i % 2 else "change", **pair} for i, pair in enumerate(pairs, 1)],
    }


def traced_entry(docs: dict) -> dict:
    names = [name for name in docs["change"]["metrics"] if name in docs["parent"]["metrics"]]
    layers = {}
    for name in names:
        layers[name] = {side: docs[side]["metrics"][name]["value"] for side in SIDES}
        layers[name]["unit"] = docs["change"]["metrics"][name]["unit"]
    return {"layers": layers, **docs}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", metavar="METRIC", help="record METRIC on this workload as the claimed gain")
    parser.add_argument("--about", help="what the change is, for the file's 'about' field")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better, bound = directions(benchmark), bounds(benchmark)
    key = f"{args.workload}@{args.seed}"
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    if key in document.get("untraced", {}):
        sys.exit(f"{args.out} already holds {key}")
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(1, args.pairs + 1):
            pair = {}
            for side in SIDES if i % 2 else SIDES[::-1]:
                out = Path(tmp) / f"{side}-{i}.json"
                pair[side] = run(trees[side], args.workload, args.seed, 0, out)
                print(f"{key} pair {i} {side}: correct={pair[side]['correct']}", file=sys.stderr)
            pairs.append({side: pair[side] for side in SIDES})
        traced = {side: run(trees[side], args.workload, args.seed, 1, Path(tmp) / f"{side}-t.json") for side in SIDES}

    if args.about:
        document["about"] = args.about
    document["command"] = f"{sys.executable} bench/run.py --workload W --seed S [--trace 1] --out FILE, in each tree"
    document["protocol"] = (
        f"{args.pairs} untraced pairs per (workload, seed), odd pairs run the parent first, even pairs the "
        "change; then one --trace 1 run per side. Runs are sequential. Made by tools/bench_pairs.py."
    )
    document["quartile_rule"] = QUARTILE_RULE
    if args.claim:
        claimed = document.get("claimed", {})
        if claimed.get("workload") != args.workload or claimed.get("metric") != args.claim:
            claimed = {"workload": args.workload, "metric": args.claim, "seeds": []}
        claimed["seeds"] = sorted(set(claimed["seeds"]) | {args.seed})
        document["claimed"] = claimed
    document.setdefault("untraced", {})[key] = untraced_entry(pairs, better, bound)
    document.setdefault("traced", {})[key] = traced_entry(traced)
    args.out.write_text(json.dumps(document, indent=1) + "\n")

    for name, entry in document["untraced"][key]["summary"].items():
        parent, change = entry["parent"], entry["change"]
        print(f"{key} {name:16s} parent {parent['median']:.6g} (IQR {parent['iqr']:.3g}) "
              f"change {change['median']:.6g} wins {entry['change_wins']}/{entry['pairs']}: {entry['verdict']}")
    clean = all_clean([pair[side] for pair in pairs for side in SIDES] + list(traced.values()))
    if not clean:
        print(f"{key}: a run was incorrect or had a failed operation", file=sys.stderr)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded solver traces of one source tree, and their bit-for-bit comparison.

    python3 tools/trace_identity.py dump SRC OUT.npz
    python3 tools/trace_identity.py compare A.npz B.npz

``dump`` imports tiht from ``SRC/src`` and the benchmark's fixed workload
lists from ``SRC/bench/workloads.py`` (read only).  It runs trials 0-2 at
seed 2016 of each sweep cell, with the cell's iteration cap, and every
``RECOVER_COMBOS`` instance at seed 201600 with the CLI's seed streams and
cap 100.  It also runs the four seeded diverging runs of
``tests/test_solvers.py``, so every stop reason is among the 42 runs.  Per
run it saves ``mus``, ``residuals``, ``step_norms``, ``eps_ratios``,
per-iteration ``retries``, ``stop_reason`` and the final tensor.  Off the
balanced 10x10x10 HT path it saves HT draws and ``truncate``'s
``reconstruct()`` and ``blocks()`` frames at ranks 1-3, with the image of a
seeded tensor under ``RankProjector(shape, blocks())`` (their M^j), on real
and complex non-cubic tensors over ``balanced(5)`` (leaves at two levels),
the degenerate (caterpillar) tree ``(0, (1, (2, 3)))``, ``balanced(3)`` and the
order-6 tree ``(((0, 1), 2), (3, (4, 5)))``, which is neither balanced nor
degenerate.  It also saves HOSVD and TT draws of
``random_rank_r_tensor`` on the non-cubic shapes (4, 5, 3, 6) and (2, 3, 4), at
three ranks each that the rank clamp leaves unchanged and three seeds, and at
the same shapes and ranks ``truncate``'s ``reconstruct()`` and ``blocks()``
frames of a real and a complex tensor, with their projector image.  Last,
it runs one small seeded ``tiht recover`` (with and without ``--out``),
``phase`` (``--out`` CSV and JSON, ``TIHT_THREADS=1``), ``trip`` and
``bounds`` in process and saves the bytes of each one's stdout and output
files: 689 arrays in all.
``compare`` prints how many arrays are identical (equal dtype, shape and
bytes) and the worst relative difference, and exits 1 unless all are.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np


def dump(src: Path, out: str) -> None:
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    import tiht
    import workloads as w

    arrays = {}
    for c in w.NTIHT_CELLS + w.CTIHT_CELLS:
        spec = tiht.experiments.ExperimentSpec(
            shape=w.SHAPE,
            rank=c.rank,
            ensemble=c.ensemble,
            variant=c.variant,
            grid=(c.nbar,),
            seed=w.DEFAULT_SEED,
            max_iters=c.max_iters,
        )
        config = tiht.solvers.SolverConfig(rank=c.rank, variant=c.variant, max_iters=c.max_iters)
        for trial in range(3):
            X0, A, _ = tiht.experiments.measurements_for(spec, c.nbar, trial)
            arrays |= run_arrays(tiht, f"{c.label}/trial{trial}", A, X0, config, spec.threshold)
    for inst in w.Recover(w.DEFAULT_SEED).instances[: len(w.RECOVER_COMBOS)]:
        m = w.checks.measurement_count(w.SHAPE, inst.nbar)
        X0 = tiht.experiments.random_rank_r_tensor(w.SHAPE, inst.fmt, inst.solver_rank, [inst.seed, 0])
        A = tiht.measurements.draw(inst.ensemble, w.SHAPE, m, [inst.seed, 1])
        config = tiht.solvers.SolverConfig(rank=inst.solver_rank, format=inst.fmt, max_iters=w.RECOVER_CAP)
        arrays |= run_arrays(tiht, inst.label, A, X0, config, w.THRESHOLDS[inst.ensemble])
    arrays |= diverging_arrays(tiht) | ht_arrays(tiht) | draw_arrays(tiht) | cli_arrays(tiht)
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays written to {out}")


def run_arrays(tiht, label, A, X0, config, threshold) -> dict:
    res = tiht.solvers.tiht_run(A, A.apply(X0), config, X_ref=X0, success_threshold=threshold)
    arrays = {f"{label}/{name}": getattr(res, name) for name in ("mus", "residuals", "step_norms", "eps_ratios")}
    arrays[f"{label}/retries"] = np.array([s.retries for s in res.trace])
    arrays[f"{label}/stop_reason"] = np.array(res.stop_reason)
    arrays[f"{label}/tensor"] = res.tensor
    return arrays


def diverging_arrays(tiht) -> dict:
    """The seeded diverging runs of tests/test_solvers.py, which reach both exits to "diverged"."""
    shape, arrays = (3, 3, 3), {}
    X0 = tiht.experiments.generate_test_tensor(shape, (1, 1, 1), seed=27)
    for name, scale, x_scale, variants in (
        ("blowup", 2.0, 1.0, ("ctiht",)),  # A = 2I: the CTIHT error map e -> -3e
        ("gradient-overflow", 1e250, 1e-150, ("ntiht", "ctiht")),  # y finite, A*(y) not
        ("candidate-overflow", 1e100, 1e-40, ("ntiht",)),  # A*(y) finite, mu = inf / inf
    ):
        A = tiht.measurements.GaussianEnsemble(scale * np.eye(27), shape)
        for variant in variants:
            config = tiht.solvers.SolverConfig(rank=(1, 1, 1), variant=variant)
            arrays |= run_arrays(tiht, f"diverging/{name}/{variant}", A, x_scale * X0, config, 1e-3)
    return arrays


def ht_arrays(tiht) -> dict:
    DT, rng, z_rng, arrays = tiht.formats.DimensionTree, np.random.default_rng(2016), np.random.default_rng(2017), {}
    cases = (
        ("balanced5", DT.balanced(5), (2, 3, 4, 3, 2)),
        ("degenerate4", DT((0, (1, (2, 3)))), (3, 5, 2, 4)),
        ("balanced3", DT.balanced(3), (4, 2, 5)),
        ("irregular6", DT((((0, 1), 2), (3, (4, 5)))), (2, 3, 2, 4, 3, 2)),
    )
    for name, tree, shape in cases:
        for r in (1, 2, 3):
            label = f"ht/{name}/rank{r}"
            arrays[f"{label}/draw"] = tiht.experiments.random_rank_r_tensor(shape, "ht", r, [2016, r], tree)
            for field in ("real", "complex"):
                arrays |= truncation_arrays(tiht, f"{label}/{field}", rng, z_rng, shape, field, "ht", r, tree)
    return arrays


def draw_arrays(tiht) -> dict:
    cases = (
        ((4, 5, 3, 6), "hosvd", ((1, 1, 1, 1), (2, 2, 2, 2), (4, 2, 3, 5))),
        ((4, 5, 3, 6), "tt", ((1, 1, 1), (2, 2, 2), (3, 4, 5))),
        ((2, 3, 4), "hosvd", ((1, 1, 1), (2, 2, 2), (2, 3, 4))),
        ((2, 3, 4), "tt", ((1, 1), (2, 2), (2, 4))),
    )
    rng, z_rng, arrays = np.random.default_rng(2016), np.random.default_rng(2017), {}
    for shape, fmt, ranks in cases:
        for r in ranks:
            label = f"{fmt}/{'x'.join(map(str, shape))}/rank{''.join(map(str, r))}"
            for seed in range(3):
                arrays[f"{label}/seed{seed}/draw"] = tiht.experiments.random_rank_r_tensor(shape, fmt, r, [2016, seed])
            for field in ("real", "complex"):
                arrays |= truncation_arrays(tiht, f"{label}/{field}", rng, z_rng, shape, field, fmt, r)
    return arrays


def truncation_arrays(tiht, label, rng, z_rng, shape, field, fmt, rank, tree=None) -> dict:
    """``reconstruct()`` and ``blocks()`` of the truncation of a draw from ``rng``, and its M^j applied to a draw from ``z_rng``."""

    def draw(gen):
        return gen.standard_normal(shape) + (1j * gen.standard_normal(shape) if field == "complex" else 0)

    D = tiht.formats.truncate(draw(rng), fmt, rank, tree)
    arrays = {f"{label}/reconstruct": D.reconstruct()}
    for S, U in D.blocks():
        arrays[f"{label}/frame{''.join(map(str, S))}"] = U
    arrays[f"{label}/projector"] = tiht.solvers.RankProjector(shape, D.blocks())(draw(z_rng))
    return arrays


def cli_arrays(tiht) -> dict:
    """The bytes of the stdout and of every output file of one small seeded call of each CLI command."""
    import tiht.cli  # `import tiht` alone does not load the CLI
    recover = "recover --shape 6x6x6 --nbar 40 --seed 3 --max-iters 300".split()
    phase = "phase --shape 6x6x6 --rank 1,1,1 --grid 10,50 --trials 3 --seed 11 --max-iters 300".split()
    calls = (
        ("recover", recover + ["--trace-out", "t.csv"], ("t.csv",)),
        ("recover-out", recover + ["--out", "s.json", "--trace-out", "t.csv"], ("s.json", "t.csv")),
        ("phase-csv", phase + ["--out", "c.csv"], ("c.csv",)),
        ("phase-json", phase + ["--out", "c.json"], ("c.json",)),
        ("trip", "trip --shape 5x5x5 --m 100 --samples 4 --seed 2".split(), ()),
        ("bounds", "bounds --a 0.5".split(), ()),
    )
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, TIHT_THREADS="1"):
        for label, argv, files in calls:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                tiht.cli.main([a if a not in files else os.path.join(tmp, a) for a in argv])
            arrays[f"cli/{label}/stdout"] = np.frombuffer(stdout.getvalue().encode(), dtype=np.uint8)
            for name in files:
                arrays[f"cli/{label}/{name}"] = np.fromfile(os.path.join(tmp, name), dtype=np.uint8)
    return arrays


def compare(a_path: str, b_path: str) -> int:
    a, b = np.load(a_path), np.load(b_path)
    names = sorted(set(a.files) | set(b.files))
    same, worst = 0, 0.0
    for name in names:
        x, y = (a[name] if name in a.files else None), (b[name] if name in b.files else None)
        if x is not None and y is not None and x.shape == y.shape:
            if x.dtype == y.dtype and x.tobytes() == y.tobytes():  # so 0.0 is not -0.0, nor a real zero a complex one
                same += 1
                continue
            if x.dtype.kind in "fc" and y.dtype.kind in "fc" and x.size:
                with np.errstate(invalid="ignore", divide="ignore"):
                    worst = max(worst, float(np.nanmax(np.abs(x - y)) / max(np.nanmax(np.abs(x)), 1e-300)))
        print(f"{name}: differs or is missing on one side")
    print(f"{same}/{len(names)} arrays identical; worst relative difference {worst:.3g}")
    return 0 if same == len(names) else 1


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("dump", "compare"):
        sys.exit(__doc__)
    if sys.argv[1] == "dump":
        dump(Path(sys.argv[2]).resolve(), sys.argv[3])
    else:
        sys.exit(compare(sys.argv[2], sys.argv[3]))

"""Seeded solver traces of one source tree, and their bit-for-bit comparison.

    python3 tools/trace_identity.py dump SRC OUT.npz
    python3 tools/trace_identity.py compare A.npz B.npz

``dump`` imports tiht from ``SRC/src`` and the benchmark's fixed workload
lists from ``SRC/bench/workloads.py`` (read only).  It runs trials 0-2 at
seed 2016 of each sweep cell, with the cell's iteration cap, and every
``RECOVER_COMBOS`` instance at seed 201600 with the CLI's seed streams and
cap 100.  Per run it saves ``mus``, ``residuals``, ``step_norms``,
``eps_ratios``, per-iteration ``retries``, ``stop_reason`` and the final
tensor.  Off that balanced 10x10x10 HT path it saves HT draws and
``truncate``'s ``reconstruct()`` and ``blocks()`` frames at ranks 1-3, on
real and complex non-cubic tensors over ``balanced(5)`` (leaves at two levels),
``degenerate(4)``, ``balanced(3)`` and the order-6 tree ``(((0, 1), 2), (3, (4, 5)))``,
which is neither balanced nor degenerate.  It also saves HOSVD and TT draws of
``random_rank_r_tensor`` on the non-cubic shapes (4, 5, 3, 6) and (2, 3, 4), at
three ranks each that the rank clamp leaves unchanged and three seeds.
``compare`` prints how many arrays are identical and the worst relative
difference, and exits 1 unless all are.
"""

import sys
from pathlib import Path

import numpy as np


def dump(src: Path, out: str) -> None:
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    import tiht
    import workloads as w

    arrays = {}

    def record(label, A, X0, config, threshold):
        res = tiht.solvers.tiht_run(A, A.apply(X0), config, X_ref=X0, success_threshold=threshold)
        for name in ("mus", "residuals", "step_norms", "eps_ratios"):
            arrays[f"{label}/{name}"] = getattr(res, name)
        arrays[f"{label}/retries"] = np.array([s.retries for s in res.trace])
        arrays[f"{label}/stop_reason"] = np.array(res.stop_reason)
        arrays[f"{label}/tensor"] = res.tensor

    for c in w.NTIHT_CELLS + w.CTIHT_CELLS:
        spec = tiht.experiments.ExperimentSpec(
            w.SHAPE, c.rank, c.ensemble, c.variant, grid=(c.nbar,), seed=w.DEFAULT_SEED, max_iters=c.max_iters
        )
        for trial in range(3):
            X0, A, _ = tiht.experiments.measurements_for(spec, c.nbar, trial)
            record(f"{c.label}/trial{trial}", A, X0, spec.solver_config(), spec.threshold)
    for inst in w.Recover(w.DEFAULT_SEED).instances[: len(w.RECOVER_COMBOS)]:
        m = w.checks.measurement_count(w.SHAPE, inst.nbar)
        X0 = tiht.experiments.random_rank_r_tensor(w.SHAPE, inst.fmt, inst.solver_rank, [inst.seed, 0])
        A = tiht.measurements.draw(inst.ensemble, w.SHAPE, m, [inst.seed, 1])
        config = tiht.solvers.SolverConfig(rank=inst.solver_rank, format=inst.fmt, max_iters=w.RECOVER_CAP)
        record(inst.label, A, X0, config, w.THRESHOLDS[inst.ensemble])
    arrays |= ht_arrays(tiht) | draw_arrays(tiht)
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays written to {out}")


def ht_arrays(tiht) -> dict:
    DT, rng, arrays = tiht.formats.DimensionTree, np.random.default_rng(2016), {}
    cases = (
        ("balanced5", DT.balanced(5), (2, 3, 4, 3, 2)),
        ("degenerate4", DT.degenerate(4), (3, 5, 2, 4)),
        ("balanced3", DT.balanced(3), (4, 2, 5)),
        ("irregular6", DT((((0, 1), 2), (3, (4, 5)))), (2, 3, 2, 4, 3, 2)),
    )
    for name, tree, shape in cases:
        for r in (1, 2, 3):
            label = f"ht/{name}/rank{r}"
            arrays[f"{label}/draw"] = tiht.experiments.random_rank_r_tensor(shape, "ht", r, [2016, r], tree)
            for field in ("real", "complex"):
                X = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if field == "complex" else 0)
                D = tiht.formats.truncate(X, "ht", r, tree)
                arrays[f"{label}/{field}/reconstruct"] = D.reconstruct()
                for S, U in D.blocks():
                    arrays[f"{label}/{field}/frame{''.join(map(str, S))}"] = U
    return arrays


def draw_arrays(tiht) -> dict:
    cases = (
        ((4, 5, 3, 6), "hosvd", ((1, 1, 1, 1), (2, 2, 2, 2), (4, 2, 3, 5))),
        ((4, 5, 3, 6), "tt", ((1, 1, 1), (2, 2, 2), (3, 4, 5))),
        ((2, 3, 4), "hosvd", ((1, 1, 1), (2, 2, 2), (2, 3, 4))),
        ((2, 3, 4), "tt", ((1, 1), (2, 2), (2, 4))),
    )
    arrays = {}
    for shape, fmt, ranks in cases:
        for r in ranks:
            for seed in range(3):
                label = f"{fmt}/{'x'.join(map(str, shape))}/rank{''.join(map(str, r))}/seed{seed}"
                arrays[f"{label}/draw"] = tiht.experiments.random_rank_r_tensor(shape, fmt, r, [2016, seed])
    return arrays


def compare(a_path: str, b_path: str) -> int:
    a, b = np.load(a_path), np.load(b_path)
    names = sorted(set(a.files) | set(b.files))
    same, worst = 0, 0.0
    for name in names:
        x, y = (a[name] if name in a.files else None), (b[name] if name in b.files else None)
        if x is not None and y is not None and x.shape == y.shape:
            if np.array_equal(x, y, equal_nan=x.dtype.kind in "fc"):
                same += 1
                continue
            if x.dtype.kind in "fc" and x.size:
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

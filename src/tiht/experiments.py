"""Phase-transition harness: random low-rank tensors, seeded trial sweeps,
aggregated success rates over a measurement-percentage grid.

A grid value nbar maps to m = ceil(N * nbar / 100) measurements.  Recovery of
a trial counts as a success when the final error beats the threshold (1e-3,
or 2.5e-3 for completion).  Trials are embarrassingly parallel; each draws
its tensor and ensemble from disjoint seed streams derived from the master
seed, so any single trial can be replayed in isolation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .formats import DimensionTree, clamp_ranks, default_tree, normalize_ht_ranks
from .measurements import draw
from .solvers import SolverConfig, tiht_run
from .tensors import check_shape
from ._linalg import fix_svd_signs

__all__ = [
    "ExperimentSpec",
    "PhaseCell",
    "PhaseDiagram",
    "generate_test_tensor",
    "random_rank_r_tensor",
    "measurements_for",
    "run_single_trial",
    "run_phase_diagram",
    "emit_results",
    "load_results",
]

DEFAULT_THRESHOLDS = {"gaussian": 1e-3, "fourier": 1e-3, "completion": 2.5e-3}


def generate_test_tensor(shape, rank, seed) -> np.ndarray:
    """Random tensor of exact (almost surely) multilinear rank ``rank``.

    Core entries are i.i.d. N(0,1); the mode-k factor holds the first r_k
    left singular vectors of an n_k x n_k standard Gaussian matrix.
    Deterministic per seed.
    """
    dims = check_shape(shape)
    r = tuple(int(v) for v in rank)
    if len(r) != len(dims):
        raise ValueError(f"rank tuple {r} does not match order {len(dims)}")
    if any(not 1 <= v <= n for v, n in zip(r, dims)):
        raise ValueError(f"ranks {r} must lie in [1, n_k] for shape {dims}")
    rng = np.random.default_rng(seed)
    core = rng.standard_normal(r)
    X = core
    for k, (n, rk) in enumerate(zip(dims, r)):
        M = rng.standard_normal((n, n))
        U, _, _ = np.linalg.svd(M)
        U = fix_svd_signs(U[:, :rk])
        X = np.moveaxis(np.tensordot(X, U, axes=([k], [1])), -1, k)
    return X


def random_rank_r_tensor(shape, fmt: str, rank, rng, tree: DimensionTree | None = None) -> np.ndarray:
    """Random tensor of format rank at most ``rank`` (exact almost surely).

    HOSVD uses :func:`generate_test_tensor`'s construction; TT and HT draw
    Gaussian cores/transfer tensors and orthonormalized leaf frames.
    """
    dims = check_shape(shape)
    d = len(dims)
    if fmt == "hosvd":
        return generate_test_tensor(dims, rank, rng)
    if fmt == "tt":
        clamp_ranks("tt", rank, dims)  # validation only: the cores keep the ranks asked for
        r = tuple(int(v) for v in rank)
        rng = np.random.default_rng(rng)
        X = rng.standard_normal((dims[0], r[0]))
        for k in range(1, d - 1):
            G = rng.standard_normal((r[k - 1], dims[k], r[k]))
            X = np.tensordot(X, G, axes=(X.ndim - 1, 0))
        X = np.tensordot(X, rng.standard_normal((r[-1], dims[-1])), axes=(X.ndim - 1, 0))
        return X
    if fmt == "ht":
        tree = default_tree(tree, d)
        ranks = normalize_ht_ranks(tree, rank, dims)
        rng = np.random.default_rng(rng)

        def frame(node):
            if tree.is_leaf(node):
                M = rng.standard_normal((dims[node[0]], ranks[node]))
                Q, _ = np.linalg.qr(M)
                return Q
            s1, s2 = tree.children(node)
            U1, U2 = frame(s1), frame(s2)
            B = rng.standard_normal((ranks[node], U1.shape[1] * U2.shape[1]))
            return np.kron(U2, U1) @ B.T

        v = frame(tree.root)
        return v[:, 0].reshape(dims, order="F")
    raise ValueError(f"unknown tensor format {fmt!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One phase-diagram sweep: the problem family plus the trial protocol."""

    shape: tuple[int, ...]
    rank: object
    ensemble: str = "gaussian"
    variant: str = "ntiht"
    format: str = "hosvd"
    tree: DimensionTree | None = None
    grid: tuple[int, ...] = field(default_factory=tuple)
    trials: int = 50
    threshold: float | None = None
    seed: int = 0
    max_iters: int = 5000
    conv_tol: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "shape", check_shape(self.shape))
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))
        if any(not 1 <= g <= 100 for g in self.grid):
            raise ValueError("grid percentages must lie in 1..100")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.ensemble not in DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.threshold is None:
            object.__setattr__(self, "threshold", DEFAULT_THRESHOLDS[self.ensemble])

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def m_of(self, nbar: int) -> int:
        return math.ceil(self.size * nbar / 100)


@dataclass
class PhaseCell:
    """Aggregated outcome of all trials at one grid percentage."""

    nbar: int
    m: int
    successes: int
    trials: int
    mean_iterations: float
    mean_error: float

    @property
    def rate(self) -> float:
        return self.successes / self.trials


@dataclass
class PhaseDiagram:
    """All cells of a sweep plus the transition summary of the results table.

    ``nbar_full`` is the minimal grid percentage with every trial successful;
    ``nbar_zero`` the maximal grid percentage with no successful trial.
    Either is None when no grid point qualifies.
    """

    spec: ExperimentSpec
    cells: list[PhaseCell]

    @property
    def nbar_full(self) -> int | None:
        hits = [c.nbar for c in self.cells if c.successes == c.trials]
        return min(hits) if hits else None

    @property
    def nbar_zero(self) -> int | None:
        hits = [c.nbar for c in self.cells if c.successes == 0]
        return max(hits) if hits else None


def measurements_for(spec: ExperimentSpec, nbar: int, trial: int):
    """Tensor, ensemble and measurement vector for one (cell, trial) task.

    Seed streams: [seed, nbar, trial, 0] feeds the test tensor and
    [seed, nbar, trial, 1] the ensemble, so trials are independent and
    replayable in isolation.  Completion and Fourier ensembles re-sample
    their index sets per trial.
    """
    X0 = random_rank_r_tensor(
        spec.shape, spec.format, spec.rank, [spec.seed, nbar, trial, 0], spec.tree
    )
    A = draw(spec.ensemble, spec.shape, spec.m_of(nbar), [spec.seed, nbar, trial, 1])
    return X0, A, A.apply(X0)


def run_single_trial(spec: ExperimentSpec, nbar: int, trial: int):
    """Run one seeded trial; returns (success, iterations, final_error)."""
    X0, A, y = measurements_for(spec, nbar, trial)
    config = SolverConfig(
        rank=spec.rank,
        variant=spec.variant,
        format=spec.format,
        tree=spec.tree,
        max_iters=spec.max_iters,
        conv_tol=spec.conv_tol,
    )
    result = tiht_run(A, y, config, X_ref=X0, success_threshold=spec.threshold)
    return bool(result.success), result.iterations, float(result.final_error)


def _trial_task(args):
    spec, nbar, trial = args
    return run_single_trial(spec, nbar, trial)


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else TIHT_THREADS, else the CPU count."""
    if workers is None:
        env = os.environ.get("TIHT_THREADS")
        workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, int(workers))


def run_phase_diagram(spec: ExperimentSpec, workers: int | None = None) -> PhaseDiagram:
    """Sweep the grid, ``spec.trials`` seeded trials per cell.

    Deterministic for a fixed spec regardless of worker count or completion
    order; non-convergence is a recorded unsuccessful outcome, never an error.
    """
    if not spec.grid:
        raise ValueError("grid must contain at least one percentage")
    workers = resolve_workers(workers)
    tasks = [(spec, nbar, t) for nbar in spec.grid for t in range(spec.trials)]
    if workers == 1 or len(tasks) == 1:
        outcomes = [_trial_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            outcomes = list(pool.map(_trial_task, tasks, chunksize=chunk))

    cells = []
    idx = 0
    for nbar in spec.grid:
        batch = outcomes[idx : idx + spec.trials]
        idx += spec.trials
        cells.append(
            PhaseCell(
                nbar=nbar,
                m=spec.m_of(nbar),
                successes=sum(1 for ok, _, _ in batch if ok),
                trials=spec.trials,
                mean_iterations=float(np.mean([it for _, it, _ in batch])),
                mean_error=float(np.mean([err for _, _, err in batch])),
            )
        )
    return PhaseDiagram(spec=spec, cells=cells)


_COLUMNS = [
    "type",
    "shape",
    "rank",
    "variant",
    "nbar",
    "m",
    "successes",
    "trials",
    "mean_iters",
    "mean_error",
]


def _rank_label(rank) -> str:
    if isinstance(rank, dict):
        return ";".join(f"{lo}-{hi}:{r}" for (lo, hi), r in sorted(rank.items()))
    if isinstance(rank, (tuple, list)):
        return ",".join(str(int(v)) for v in rank)
    return str(int(rank))


def emit_results(diagram: PhaseDiagram, path, fmt: str = "csv") -> None:
    """Write cells with the fixed column order, sorted by (variant, nbar)."""
    if not diagram.cells:
        raise ValueError("nothing to emit: no cells")
    rows = []
    for cell in sorted(diagram.cells, key=lambda c: (diagram.spec.variant, c.nbar)):
        rows.append(
            {
                "type": diagram.spec.ensemble,
                "shape": "x".join(str(n) for n in diagram.spec.shape),
                "rank": _rank_label(diagram.spec.rank),
                "variant": diagram.spec.variant,
                "nbar": cell.nbar,
                "m": cell.m,
                "successes": cell.successes,
                "trials": cell.trials,
                "mean_iters": cell.mean_iterations,
                "mean_error": cell.mean_error,
            }
        )
    try:
        if fmt == "csv":
            import csv

            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
                writer.writeheader()
                writer.writerows(rows)
        elif fmt == "json":
            import json

            with open(path, "w") as fh:
                json.dump(rows, fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown output format {fmt!r}")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def load_results(path) -> list[dict]:
    """Parse a results file back into row dicts (numbers restored)."""
    path = str(path)
    try:
        if path.endswith(".json"):
            import json

            with open(path) as fh:
                rows = json.load(fh)
        else:
            import csv

            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    out = []
    for row in rows:
        out.append(
            {
                "type": row["type"],
                "shape": row["shape"],
                "rank": row["rank"],
                "variant": row["variant"],
                "nbar": int(row["nbar"]),
                "m": int(row["m"]),
                "successes": int(row["successes"]),
                "trials": int(row["trials"]),
                "mean_iters": float(row["mean_iters"]),
                "mean_error": float(row["mean_error"]),
            }
        )
    return out

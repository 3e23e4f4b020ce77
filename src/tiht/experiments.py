"""Phase-transition harness: seeded trial sweeps over random low-rank tensors,
aggregated success rates over a measurement-percentage grid.

A grid value nbar maps to m = ceil(N * nbar / 100) measurements.  Recovery of
a trial counts as a success when the final error beats the threshold (1e-3,
or 2.5e-3 for completion).  Trials are embarrassingly parallel; each draws
its tensor and ensemble from disjoint seed streams derived from the master
seed, so any single trial can be replayed in isolation.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .formats import draw_ranks, hosvd_random as generate_test_tensor, random_rank_r_tensor
from .measurements import ENSEMBLES, draw
from .solvers import SolverConfig, tiht_run
from .tensors import check_shape

__all__ = [
    "ExperimentSpec",
    "PhaseCell",
    "PhaseDiagram",
    "generate_test_tensor",
    "random_rank_r_tensor",
    "success_threshold",
    "measurement_count",
    "measurements_for",
    "run_single_trial",
    "run_phase_diagram",
    "emit_results",
]

DEFAULT_THRESHOLDS = {kind: 2.5e-3 if kind == "completion" else 1e-3 for kind in ENSEMBLES}


def success_threshold(ensemble: str, threshold: float | None = None) -> float:
    """``threshold``, or the ensemble's default when it is None; it must be positive."""
    if threshold is None:
        return DEFAULT_THRESHOLDS[ensemble]
    if not threshold > 0:
        raise ValueError(f"success threshold must be positive, got {threshold}")
    return threshold


def measurement_count(shape, nbar: int) -> int:
    """m = ceil(N * nbar / 100) for a tensor of ``shape``, in exact integer arithmetic."""
    return -(-math.prod(shape) * nbar // 100)


@dataclass(frozen=True)
class ExperimentSpec:
    """One phase-diagram sweep: the problem family plus the trial protocol."""

    shape: tuple[int, ...]
    rank: object
    ensemble: str = "gaussian"
    variant: str = "ntiht"
    format: str = "hosvd"
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
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        object.__setattr__(self, "threshold", success_threshold(self.ensemble, self.threshold))
        self.solver_config()  # validates variant, format, max_iters and conv_tol
        draw_ranks(self.format, self.rank, self.shape)  # validates the rank

    def solver_config(self) -> SolverConfig:
        """The solver settings every trial of the sweep runs with."""
        return SolverConfig(
            rank=self.rank,
            variant=self.variant,
            format=self.format,
            max_iters=self.max_iters,
            conv_tol=self.conv_tol,
        )

    def m_of(self, nbar: int) -> int:
        return measurement_count(self.shape, nbar)


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
    X0 = random_rank_r_tensor(spec.shape, spec.format, spec.rank, [spec.seed, nbar, trial, 0])
    A = draw(spec.ensemble, spec.shape, spec.m_of(nbar), [spec.seed, nbar, trial, 1])
    return X0, A, A.apply(X0)


def run_single_trial(spec: ExperimentSpec, nbar: int, trial: int):
    """Run one seeded trial; returns (success, iterations, final_error)."""
    X0, A, y = measurements_for(spec, nbar, trial)
    result = tiht_run(A, y, spec.solver_config(), X_ref=X0, success_threshold=spec.threshold)
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


# results-file columns in their fixed order
_COLUMNS = ("type", "shape", "rank", "variant", "nbar", "m", "successes", "trials", "mean_iters", "mean_error")


def _rank_label(rank) -> str:
    if isinstance(rank, (tuple, list)):
        return ",".join(str(int(v)) for v in rank)
    return str(int(rank))


def emit_results(diagram: PhaseDiagram, path) -> None:
    """Write cells with the fixed column order, sorted by (variant, nbar).

    A path ending in ``.json`` gets a JSON list of rows, any other path CSV.
    """
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
        with open(path, "w", newline="") as fh:
            if str(path).endswith(".json"):
                json.dump(rows, fh, indent=2)
                fh.write("\n")
            else:
                writer = csv.DictWriter(fh, fieldnames=_COLUMNS)
                writer.writeheader()
                writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


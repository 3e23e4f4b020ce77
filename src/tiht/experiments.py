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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .formats import draw_ranks, hosvd_random as generate_test_tensor, random_rank_r_tensor
from .measurements import ENSEMBLES, draw
from .solvers import RecoveryResult, SolverConfig, tiht_run
from .tensors import check_choice, check_count, check_real, check_shape, frobenius_norm

__all__ = [
    "ExperimentSpec",
    "PhaseCell",
    "PhaseDiagram",
    "TrialRecord",
    "trial_record",
    "generate_test_tensor",
    "random_rank_r_tensor",
    "success_threshold",
    "measurement_count",
    "measurements_for",
    "run_single_trial",
    "run_phase_diagram",
    "write_json",
    "write_table",
    "emit_results",
    "emit_trace",
]

DEFAULT_THRESHOLDS = {kind: 2.5e-3 if kind == "completion" else 1e-3 for kind in ENSEMBLES}


def success_threshold(ensemble: str, threshold: float | None = None) -> float:
    """``threshold``, or the ensemble's default when it is None; a threshold is a real in (0, inf)."""
    check_choice("ensemble", ensemble, ENSEMBLES)
    return DEFAULT_THRESHOLDS[ensemble] if threshold is None else check_real("success_threshold", threshold)


def measurement_count(shape, nbar: int) -> int:
    """m = ceil(N * nbar / 100) for a tensor of ``shape``, in exact integer arithmetic; nbar is a percentage."""
    if check_count("nbar", nbar) > 100:
        raise ValueError(f"nbar must be an integer in 1..100, got {nbar!r}")
    return -(-math.prod(shape) * nbar // 100)


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(SolverConfig):
    """One phase-diagram sweep: the solver config of every trial plus the
    problem family and the trial protocol.  It sorts and de-duplicates its
    grid once, and it keeps no iterates.
    """

    keep_iterates: bool = field(default=False, init=False)
    shape: tuple[int, ...]
    grid: tuple[int, ...]
    ensemble: str = "gaussian"
    trials: int = 50
    threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "shape", check_shape(self.shape))
        object.__setattr__(self, "grid", tuple(sorted({check_count("nbar", g) for g in self.grid})))
        if not self.grid:
            raise ValueError("grid must hold one or more percentages, got ()")
        measurement_count(self.shape, self.grid[-1])  # the largest percentage passes the percentage check
        check_count("trials", self.trials)
        check_count("seed", self.seed, 0)
        object.__setattr__(self, "threshold", success_threshold(self.ensemble, self.threshold))
        draw_ranks(self.format, self.rank, self.shape)  # a rank some draw reaches


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


class TrialRecord(NamedTuple):
    """One trial of a sweep, as :func:`trial_record` builds it: ints, floats, bools, strings and None only.

    A field that a run stopped before its first iteration cannot fill is
    None, never NaN, so records compare with ``==``.  ``digest`` is the
    SHA-256 hex digest of the bytes of the run's ``mus``, ``residuals``,
    ``step_norms``, per-iteration retries as int64 and final tensor.
    """

    nbar: int
    trial: int
    success: bool
    iterations: int
    final_error: float
    stop_reason: str
    x0_norm: float
    last_step_norm: float | None
    retries: int  # safeguard backoffs over the run
    most_retries: int | None  # in one iteration
    retry_iterations: int  # iterations with at least one backoff
    mu_ratio: float | None  # the last iteration's mu over the first's
    first_mu_fallback: bool | None  # the first step fell back to mu = 1
    max_eps_ratio: float | None
    digest: str


def trial_record(nbar: int, trial: int, X0: np.ndarray, result: RecoveryResult) -> TrialRecord:
    """The record of ``result``, trial ``trial`` of the ``nbar`` cell, run with ``X_ref=X0``."""
    import hashlib  # numpy.random loads it at the first draw; here `import tiht` does not pay its 3.6 MB of RSS

    trace = result.trace
    retries = [s.retries for s in trace]
    digest = hashlib.sha256()
    for a in (result.mus, result.residuals, result.step_norms, np.array(retries, dtype=np.int64), result.tensor):
        digest.update(a.tobytes())
    return TrialRecord(
        nbar=nbar,
        trial=trial,
        success=bool(result.success),
        iterations=result.iterations,
        final_error=float(result.final_error),
        stop_reason=result.stop_reason,
        x0_norm=frobenius_norm(X0),
        last_step_norm=trace[-1].step_norm if trace else None,
        retries=sum(retries),
        most_retries=max(retries, default=None),
        retry_iterations=sum(r > 0 for r in retries),
        mu_ratio=trace[-1].mu / trace[0].mu if trace else None,
        first_mu_fallback=trace[0].mu_fallback if trace else None,
        max_eps_ratio=max((s.eps_ratio for s in trace), default=None),
        digest=digest.hexdigest(),
    )


@dataclass
class PhaseDiagram:
    """All cells of a sweep, the record of every trial in task order (grid,
    then trial), and the transition summary of the results table.

    ``nbar_full`` is the minimal grid percentage with every trial successful;
    ``nbar_zero`` the maximal grid percentage with no successful trial.
    Either is None when no grid point qualifies.
    """

    spec: ExperimentSpec
    cells: list[PhaseCell]
    records: list[TrialRecord] = field(default_factory=list)

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
    A = draw(spec.ensemble, spec.shape, measurement_count(spec.shape, nbar), [spec.seed, nbar, trial, 1])
    return X0, A, A.apply(X0)


def run_single_trial(spec: ExperimentSpec, nbar: int, trial: int) -> TrialRecord:
    """Run one seeded trial from :func:`measurements_for` and return its :class:`TrialRecord`.

    Each worker of a sweep runs this, so any trial replays alone.
    """
    X0, A, y = measurements_for(spec, nbar, trial)
    return trial_record(nbar, trial, X0, tiht_run(A, y, spec, X_ref=X0, success_threshold=spec.threshold))


def resolve_workers(workers: int | None = None) -> int:
    """Worker count >= 1: explicit argument, else TIHT_THREADS, else the CPU count."""
    if workers is None:
        env = os.environ.get("TIHT_THREADS")
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"TIHT_THREADS must be an integer, got {env!r}") from None
        return check_count("TIHT_THREADS", workers)
    return check_count("workers", workers)


def run_phase_diagram(spec: ExperimentSpec, workers: int | None = None) -> PhaseDiagram:
    """Sweep the grid, ``spec.trials`` seeded trials per cell.

    Deterministic for a fixed spec regardless of worker count or completion
    order; non-convergence is a recorded unsuccessful outcome, never an error.
    """
    tasks = [(spec, nbar, t) for nbar in spec.grid for t in range(spec.trials)]
    # the fork start method starts every worker with the first task, so no more than there are tasks
    workers = min(resolve_workers(workers), len(tasks))
    if workers == 1:
        records = [run_single_trial(*t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, so only a pooled sweep does
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            records = list(pool.map(run_single_trial, *zip(*tasks), chunksize=chunk))

    cells = []
    for nbar in spec.grid:
        batch = [r for r in records if r.nbar == nbar]
        cells.append(
            PhaseCell(
                nbar=nbar,
                m=measurement_count(spec.shape, nbar),
                successes=sum(r.success for r in batch),
                trials=spec.trials,
                mean_iterations=float(np.mean([r.iterations for r in batch])),
                mean_error=float(np.mean([r.final_error for r in batch])),
            )
        )
    return PhaseDiagram(spec=spec, cells=cells, records=records)


# results-file and trace-file columns in their fixed order
_COLUMNS = ("type", "shape", "rank", "variant", "nbar", "m", "successes", "trials", "mean_iters", "mean_error")
_TRACE_COLUMNS = ("iteration", "residual", "step_norm", "mu", "eps_ratio")


def write_json(path, value) -> None:
    """``value`` as JSON, indented by 2 with a closing newline, to ``path`` or, when it is None, to stdout."""
    text = json.dumps(value, indent=2) + "\n"
    if path is None:
        print(text, end="")
        return
    with open(path, "w") as fh:
        fh.write(text)


def write_table(path, columns, rows) -> None:
    """Write rows keyed by ``columns``: a JSON list when ``path`` ends in ``.json``, else CSV under a header."""
    if str(path).endswith(".json"):
        write_json(path, rows)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def emit_results(diagram: PhaseDiagram, path) -> None:
    """Write cells with the fixed column order, in the spec's grid order, through :func:`write_table`."""
    if not diagram.cells:
        raise ValueError("nothing to emit: no cells")
    spec = diagram.spec
    rank = ",".join(map(str, spec.rank)) if isinstance(spec.rank, tuple) else str(spec.rank)
    run = (spec.ensemble, "x".join(map(str, spec.shape)), rank, spec.variant)
    rows = [
        dict(zip(_COLUMNS, run + (c.nbar, c.m, c.successes, c.trials, c.mean_iterations, c.mean_error)))
        for c in diagram.cells
    ]
    write_table(path, _COLUMNS, rows)


def emit_trace(result, path) -> None:
    """Write a run's trace through :func:`write_table`, row j for iteration j; an eps_ratio of None is empty in CSV."""
    rows = [
        dict(zip(_TRACE_COLUMNS, (j, s.residual, s.step_norm, s.mu, s.eps_ratio)))
        for j, s in enumerate(result.trace)
    ]
    write_table(path, _TRACE_COLUMNS, rows)

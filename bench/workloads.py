"""The benchmark's workloads: fixed, seeded lists of trials run through tiht's
public entry points, and the checks of their outputs.

A round is one pass over a workload's fixed list; every round of a run is
the same list with the same seeds, so a run's mix of cheap and expensive
trials never depends on how long it ran.  Operations are sweep trials or
single recoveries.  An operation fails when it raises or fails a check; a
trial below the transition that does not recover is a correct outcome.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks

SHAPE = (10, 10, 10)
DEFAULT_SEED = 2016  # the acceptance suite's master seed
THRESHOLDS = {"gaussian": 1e-3, "fourier": 1e-3, "completion": 2.5e-3}

# Iteration caps.  Below the transition a trial almost never recovers, so the cap
# alone sets its cost: NTIHT trials stop at 90 iterations so that a round
# holds many of them, CTIHT ones (no safeguard, about 1 ms per iteration) at
# 225.  Above it, recoveries at the default seed finish within 220
# iterations; 300 cuts the rare slow tail (up to 5000 iterations at other
# seeds) that would otherwise set a whole run's time.
NTIHT_BELOW_CAP = 90
CTIHT_BELOW_CAP = 225
ABOVE_CAP = 300
RECOVER_CAP = 100


@dataclass(frozen=True)
class Cell:
    """One acceptance grid cell: its first ``trials`` trials at the master seed."""

    ensemble: str
    rank: tuple[int, ...]
    variant: str
    nbar: int
    trials: int
    max_iters: int
    min_rate: float | None  # acceptance rate bound; None below the transition

    @property
    def label(self) -> str:
        return f"{self.variant}/{self.ensemble}/rank{self.rank[0]}/nbar{self.nbar}"


# Criteria 1, 3 and 4 of the acceptance suite.  Cells below the transition
# stay within the suite's 50 trials, the ones it requires not to recover.
# The Fourier cell below the transition holds more than half of the trials,
# so the trial-weighted median latency is always one of its trials, whatever
# the order of the cell means.
NTIHT_CELLS = (
    Cell("gaussian", (1, 1, 1), "ntiht", 3, 24, NTIHT_BELOW_CAP, None),
    Cell("gaussian", (1, 1, 1), "ntiht", 8, 7, ABOVE_CAP, 0.95),
    Cell("fourier", (2, 2, 2), "ntiht", 6, 50, NTIHT_BELOW_CAP, None),
    Cell("fourier", (2, 2, 2), "ntiht", 11, 7, ABOVE_CAP, 0.95),
    Cell("completion", (1, 1, 1), "ntiht", 17, 5, ABOVE_CAP, 0.90),
)
# Criterion 2; the nbar-24 cell holds more than half of the trials.
CTIHT_CELLS = (
    Cell("gaussian", (1, 1, 1), "ctiht", 6, 50, CTIHT_BELOW_CAP, None),
    Cell("gaussian", (1, 1, 1), "ctiht", 24, 300, ABOVE_CAP, 0.95),
)

# (format, --rank, ensemble, nbar) for `tiht recover`, all well above the
# transition.  HT rank 2 with completion is left out: even at nbar 80 some of
# its instances spend most of their time in safeguard retries.
RECOVER_COMBOS = tuple(
    (fmt, rank, ensemble, nbar)
    for fmt, ranks in (("hosvd", ("1,1,1", "2,2,2")), ("tt", ("1,1", "2,2")), ("ht", ("1", "2")))
    for rank in ranks
    for ensemble, nbar in (("gaussian", 40), ("fourier", 30), ("completion", 60))
    if (fmt, rank, ensemble) != ("ht", "2", "completion")
)
RECOVER_SEEDS_PER_COMBO = 20


@dataclass
class Round:
    """Outputs and wall times of one pass over a workload's list."""

    outcomes: list  # one per timed call; None where the call raised
    walls: list[float]  # seconds per timed call
    ops: list[int]  # operations per timed call
    iterations: int
    failed: set = field(default_factory=set)  # operation ids that raised

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def latencies(self) -> list[float]:
        """Seconds per operation, each call's mean repeated once per operation."""
        return [w / n for w, n in zip(self.walls, self.ops) for _ in range(n)]


def _report(label: str, exc: BaseException) -> None:
    print(f"{label}: raised {exc!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _guarded(replay, *args) -> list[str]:
    """A replay's check failures; a replay that raises is one more failure."""
    try:
        return replay(*args)
    except Exception as exc:
        return [f"replay raised {exc!r}"]


def replay_errors(apply, X0, y, result, fmt: str, rank, threshold: float) -> list[str]:
    """Independent checks on one replayed recovery."""
    errors = checks.check_measurements(apply, X0, y)
    errors += checks.check_rank(X0, fmt, rank, exact=True)
    errors += checks.check_rank(result.tensor, fmt, rank)
    if result.trace:
        last = result.trace[-1]
        errors += checks.check_residual(apply, apply(X0), last.X, last.residual)
    errors += checks.check_recovery_flag(result.tensor, X0, threshold, result.success, result.final_error)
    return errors


class Sweep:
    """Acceptance cells through ``run_phase_diagram(spec, workers=1)``, one call per cell."""

    uses_harness = True

    def __init__(self, cells, seed: int, scale: float = 1.0):
        self.cells = [dataclasses.replace(c, trials=max(1, round(c.trials * scale))) for c in cells]
        self.seed = seed

    def setup(self, tiht) -> None:
        self.tiht = tiht
        spec = tiht.experiments.ExperimentSpec
        self.specs = [
            spec(
                shape=SHAPE,
                rank=c.rank,
                ensemble=c.ensemble,
                variant=c.variant,
                grid=(c.nbar,),
                trials=c.trials,
                seed=self.seed,
                max_iters=c.max_iters,
            )
            for c in self.cells
        ]
        for s in self.specs:  # warm-up: every cell's ensemble and solver path
            tiht.experiments.run_phase_diagram(dataclasses.replace(s, trials=1, max_iters=2), workers=1)

    def run_round(self, workers: int = 1) -> Round:
        outcomes, walls, failed = [], [], set()
        iterations = 0
        for i, spec in enumerate(self.specs):
            start = time.perf_counter()
            try:
                cell = self.tiht.experiments.run_phase_diagram(spec, workers=workers).cells[0]
            except Exception as exc:
                _report(self.cells[i].label, exc)
                cell = None
                failed.update((i, t) for t in range(spec.trials))
            walls.append(time.perf_counter() - start)
            outcomes.append(cell)
            if cell is not None:
                iterations += round(cell.mean_iterations * cell.trials)
        return Round(outcomes, walls, [s.trials for s in self.specs], iterations, failed)

    def check(self, rounds: list[Round]) -> tuple[set, list[str]]:
        """Operation ids that fail a check, and why."""
        failed, messages = set(), []

        def fail(i, trials, why):
            failed.update((i, t) for t in trials)
            messages.append(f"{self.cells[i].label}: {why}")

        for i, cell in enumerate(self.cells):
            all_trials = range(cell.trials)
            outs = [r.outcomes[i] for r in rounds if r.outcomes[i] is not None]
            if not outs:
                continue
            out = outs[0]
            if any(o != out for o in outs[1:]):
                fail(i, all_trials, "outcome differs between rounds or worker counts")
            m = checks.measurement_count(SHAPE, cell.nbar)
            if out.m != m or out.trials != cell.trials or not 0 <= out.successes <= cell.trials:
                fail(i, all_trials, f"inconsistent cell record {out}")
            if not 0 <= out.mean_iterations <= cell.max_iters:
                fail(i, all_trials, f"mean iterations {out.mean_iterations} outside [0, {cell.max_iters}]")
            if self.seed == DEFAULT_SEED:
                if cell.min_rate is None and out.successes:
                    fail(i, all_trials, f"{out.successes} recoveries below the transition")
                if cell.min_rate is not None and out.successes < cell.min_rate * cell.trials:
                    fail(i, all_trials, f"rate {out.successes}/{cell.trials} under the bound {cell.min_rate}")
            errors = _guarded(self._replay, i, out)
            if errors:
                fail(i, [0], "trial 0: " + "; ".join(errors))
        return failed, messages

    def _replay(self, i: int, out) -> list[str]:
        """Trial 0 of cell ``i`` through ``measurements_for`` and ``tiht_run``."""
        tiht, cell, spec = self.tiht, self.cells[i], self.specs[i]
        X0, A, y = tiht.experiments.measurements_for(spec, cell.nbar, 0)
        config = tiht.solvers.SolverConfig(
            rank=spec.rank,
            variant=spec.variant,
            format=spec.format,
            max_iters=spec.max_iters,
            conv_tol=spec.conv_tol,
            keep_iterates=True,
        )
        threshold = THRESHOLDS[cell.ensemble]
        result = tiht.solvers.tiht_run(A, y, config, X_ref=X0, success_threshold=threshold)
        m = checks.measurement_count(SHAPE, cell.nbar)
        apply = checks.measurement_map(cell.ensemble, SHAPE, m, [self.seed, cell.nbar, 0, 1])
        errors = replay_errors(apply, X0, y, result, spec.format, cell.rank, threshold)
        if result.success and out.successes == 0:
            errors.append("replay recovered but the harness counted no recovery")
        if not result.success and out.successes == out.trials:
            errors.append("replay did not recover but the harness counted every trial recovered")
        if out.trials == 1 and (out.mean_iterations, out.mean_error) != (result.iterations, result.final_error):
            errors.append("replay iterations or error differ from the harness record")
        return errors

    def describe(self, rnd: Round) -> list[dict]:
        return [
            {
                "cell": c.label,
                "trials": c.trials,
                "max_iters": c.max_iters,
                "successes": None if o is None else o.successes,
                "mean_iterations": None if o is None else o.mean_iterations,
                "wall_s": w,
            }
            for c, o, w in zip(self.cells, rnd.outcomes, rnd.walls)
        ]


@dataclass(frozen=True)
class Instance:
    fmt: str
    rank: str  # as given to --rank
    ensemble: str
    nbar: int
    seed: int

    @property
    def solver_rank(self):
        values = tuple(int(v) for v in self.rank.split(","))
        return values[0] if self.fmt == "ht" else values

    def argv(self, max_iters: int = RECOVER_CAP) -> list[str]:
        return [
            "recover",
            "--shape", "x".join(str(n) for n in SHAPE),
            "--rank", self.rank,
            "--format", self.fmt,
            "--ensemble", self.ensemble,
            "--nbar", str(self.nbar),
            "--seed", str(self.seed),
            "--max-iters", str(max_iters),
        ]  # fmt: skip

    @property
    def label(self) -> str:
        return f"{self.fmt}/rank{self.rank}/{self.ensemble}/nbar{self.nbar}/seed{self.seed}"


class Recover:
    """In-process ``tiht.cli.main(["recover", ...])`` on a fixed list of instances."""

    uses_harness = False

    def __init__(self, seed: int, scale: float = 1.0):
        per_combo = max(1, round(RECOVER_SEEDS_PER_COMBO * scale))
        self.instances = [
            Instance(fmt, rank, ensemble, nbar, seed * 100 + j)
            for j in range(per_combo)
            for fmt, rank, ensemble, nbar in RECOVER_COMBOS
        ]

    def setup(self, tiht) -> None:
        self.tiht = tiht
        self.argvs = [inst.argv() for inst in self.instances]
        for inst in self.instances[: len(RECOVER_COMBOS)]:  # warm-up: every format and ensemble
            self._call(inst.argv(max_iters=2))

    def _call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.tiht.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit status {code}")
        return json.loads(buf.getvalue())

    def run_round(self, workers: int = 1) -> Round:
        outcomes, walls, failed = [], [], set()
        iterations = 0
        for k, argv in enumerate(self.argvs):
            start = time.perf_counter()
            try:
                out = self._call(argv)
            except (Exception, SystemExit) as exc:
                _report(self.instances[k].label, exc)
                out = None
                failed.add(k)
            walls.append(time.perf_counter() - start)
            outcomes.append(out)
            if out is not None:
                iterations += out["iterations"]
        return Round(outcomes, walls, [1] * len(walls), iterations, failed)

    def check(self, rounds: list[Round]) -> tuple[set, list[str]]:
        failed, messages = set(), []
        for k, inst in enumerate(self.instances):
            outs = [r.outcomes[k] for r in rounds if r.outcomes[k] is not None]
            if not outs:
                continue
            errors = []
            if any(o != outs[0] for o in outs[1:]):
                errors.append("output differs between rounds")
            errors += _guarded(self._replay, inst, outs[0])
            if errors:
                failed.add(k)
                messages.append(f"{inst.label}: " + "; ".join(errors))
        return failed, messages

    def _replay(self, inst: Instance, out: dict) -> list[str]:
        """The instance through the library with the CLI's seed streams [seed, 0] and [seed, 1]."""
        tiht = self.tiht
        m = checks.measurement_count(SHAPE, inst.nbar)
        rank = inst.solver_rank
        X0 = tiht.experiments.random_rank_r_tensor(SHAPE, inst.fmt, rank, [inst.seed, 0])
        A = tiht.measurements.draw(inst.ensemble, SHAPE, m, [inst.seed, 1])
        y = A.apply(X0)
        config = tiht.solvers.SolverConfig(
            rank=rank, variant="ntiht", format=inst.fmt, max_iters=RECOVER_CAP, keep_iterates=True
        )
        threshold = THRESHOLDS[inst.ensemble]
        result = tiht.solvers.tiht_run(A, y, config, X_ref=X0, success_threshold=threshold)
        expect = {
            "m": m,
            "iterations": result.iterations,
            "converged": result.converged,
            "final_error": result.final_error,
            "success": result.success,
            "final_residual": float(result.residuals[-1]),
        }
        errors = [f"CLI {key} {out.get(key)!r}, library {value!r}" for key, value in expect.items() if out.get(key) != value]
        apply = checks.measurement_map(inst.ensemble, SHAPE, m, [inst.seed, 1])
        return errors + replay_errors(apply, X0, y, result, inst.fmt, rank, threshold)

    def describe(self, rnd: Round) -> list[dict]:
        return [
            {
                "instance": inst.label,
                "iterations": None if o is None else o["iterations"],
                "success": None if o is None else o["success"],
                "wall_s": w,
            }
            for inst, o, w in zip(self.instances, rnd.outcomes, rnd.walls)
        ]


WORKLOADS = {
    "sweep-ntiht": lambda seed, scale=1.0: Sweep(NTIHT_CELLS, seed, scale),
    "sweep-ctiht": lambda seed, scale=1.0: Sweep(CTIHT_CELLS, seed, scale),
    "recover-formats": lambda seed, scale=1.0: Recover(seed, scale),
}

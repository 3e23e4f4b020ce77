"""Command-line interface: single-instance recovery, phase sweeps, restricted
isometry estimation and the bound formulas.

Exit status is 0 on completion and 2 on argument errors (argparse's
convention).  TIHT_THREADS caps the phase-sweep worker pool.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import MISSING, asdict, fields

from . import analysis, experiments, measurements, solvers
from .formats import FORMATS, mode_sets
from .tensors import check_count

__all__ = ["main", "build_parser"]


def _parse_ints(text: str) -> tuple[int, ...]:
    """Integers separated by "x" or ","; an empty field is an error, not skipped."""
    parts = text.replace("x", ",").split(",")
    if "" in parts:
        raise argparse.ArgumentTypeError(f"empty field in {text!r}")
    return tuple(int(p) for p in parts)


def _parse_grid(text: str) -> tuple[int, ...]:
    """Comma list ("3,8,24") and/or ranges ("1:30" or "5:50:5"); the spec sorts and de-duplicates.

    Every field is a percentage or a range lo:hi[:step] that holds one; any
    other field, an empty one too, is an error, not skipped.
    """
    values: list[int] = []
    for part in text.split(","):
        pieces = part.split(":")
        field = range(0)
        if len(pieces) <= 3 and all(p.strip() for p in pieces):
            lo, hi, step = map(int, pieces) if len(pieces) == 3 else (int(pieces[0]), int(pieces[-1]), 1)
            field = range(lo, hi + 1, step)
        if not field:
            raise argparse.ArgumentTypeError(f"grid field {part!r} holds no percentage")
        values.extend(field)
    return tuple(values)


def _default_grid() -> tuple[int, ...]:
    # step 1 where transitions usually happen at desk scale, step 5 above
    return tuple(range(1, 31)) + tuple(range(35, 101, 5))


# the defaults of the eight run settings a flag sets, taken from the library's ExperimentSpec
_DEFAULTS = {f.name: f.default for f in fields(experiments.ExperimentSpec) if f.init and f.default is not MISSING}


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", type=_parse_ints, default=(10, 10, 10), help="tensor extents, e.g. 10x10x10")
    p.add_argument(
        "--rank",
        type=_parse_ints,
        default=None,
        help="rank tuple, e.g. 1,1,1 (HOSVD: one per mode, TT: one per prefix) or one int for HT;"
        " default all ones, 1 for HT",
    )
    p.add_argument("--format", choices=FORMATS, default=_DEFAULTS["format"])
    p.add_argument("--ensemble", choices=measurements.ENSEMBLES, default=_DEFAULTS["ensemble"])
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"])


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=solvers.VARIANTS, default=_DEFAULTS["variant"])
    p.add_argument("--max-iters", type=int, default=_DEFAULTS["max_iters"])
    p.add_argument("--conv-tol", type=float, default=_DEFAULTS["conv_tol"])
    p.add_argument("--threshold", type=float, default=_DEFAULTS["threshold"], help="success threshold on the final error")


def _solver_rank(args):
    if args.rank is None:  # all ones, one per mode set of the format
        return 1 if args.format == "ht" else (1,) * len(mode_sets(args.format, len(args.shape)))
    # an HT rank is one int, so --rank r means r; check_rank rejects any other HT form
    return args.rank[0] if args.format == "ht" and len(args.rank) == 1 else args.rank


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tiht", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="recover one seeded random instance")
    _add_problem_args(p)
    _add_solver_args(p)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--nbar", type=int, help="measurements as percent of N")
    size.add_argument("--m", type=int, help="absolute measurement count")
    p.add_argument("--trace-out", default=None, help="write the iteration trace: JSON for a .json path, else CSV")
    p.add_argument("--out", default=None, help="write the JSON summary here instead of stdout")

    p = sub.add_parser("phase", help="sweep a measurement-percentage grid")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--grid", type=_parse_grid, default=None, help="e.g. 3,8,24 or 1:30 or 5:50:5")
    p.add_argument("--trials", type=int, default=_DEFAULTS["trials"])
    p.add_argument("--out", default=None, help="results file: JSON when it ends in .json, else CSV")

    p = sub.add_parser("trip", help="estimate the restricted isometry constant")
    _add_problem_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="evaluate the sample-complexity and covering formulas")
    p.add_argument("--format", choices=FORMATS, default=_DEFAULTS["format"])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--fail-prob", type=float, default=0.01)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--a", type=float, default=None, help="also report convergence constants at this a")
    p.add_argument("--delta3r", type=float, default=0.0)
    p.add_argument("--opnorm", type=float, default=1.0)
    p.add_argument("--variant", choices=solvers.VARIANTS, default=_DEFAULTS["variant"])
    p.add_argument("--out", default=None)
    return parser


def _check_out(*paths) -> None:
    """Open every output path given for appending, so an unwritable one fails before any work.

    A file this had to create is removed again: a command that fails later leaves none behind.
    Two paths that resolve to one file are an error, since the later write would replace the first.
    """
    paths = [path for path in paths if path]
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ValueError(f"the output paths {', '.join(paths)} name one file")
    for path in paths:
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _from_flags(cls, args, **given):
    """``cls`` built from ``given`` and from the parsed flags named after its other fields."""
    names = {f.name for f in fields(cls) if f.init}
    return cls(**{name: value for name, value in vars(args).items() if name in names} | given)


def _cmd_recover(args) -> int:
    threshold = experiments.success_threshold(args.ensemble, args.threshold)
    shape = args.shape
    m = args.m if args.m is not None else experiments.measurement_count(shape, args.nbar)
    seed = check_count("seed", args.seed, 0)
    config = _from_flags(solvers.SolverConfig, args, rank=_solver_rank(args))
    _check_out(args.out, args.trace_out)
    X0 = experiments.random_rank_r_tensor(shape, args.format, config.rank, [seed, 0])
    A = measurements.draw(args.ensemble, shape, m, [seed, 1])
    y = A.apply(X0)
    result = solvers.tiht_run(A, y, config, X_ref=X0, success_threshold=threshold)
    if args.trace_out:
        experiments.emit_trace(result, args.trace_out)
    experiments.write_json(
        args.out,
        {
            "ensemble": args.ensemble,
            "variant": args.variant,
            "format": args.format,
            "shape": list(shape),
            "rank": config.rank,
            "m": m,
            "iterations": result.iterations,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "final_error": result.final_error,
            "success": result.success,
            "final_residual": float(result.residuals[-1]),
        },
    )
    return 0


def _cmd_phase(args) -> int:
    grid = _default_grid() if args.grid is None else args.grid
    spec = _from_flags(experiments.ExperimentSpec, args, rank=_solver_rank(args), grid=grid)
    _check_out(args.out)
    diagram = experiments.run_phase_diagram(spec)
    for cell in diagram.cells:
        print(
            f"nbar={cell.nbar:3d} m={cell.m:5d} success={cell.successes:3d}/{cell.trials}"
            f" mean_iters={cell.mean_iterations:8.1f} mean_error={cell.mean_error:.3e}"
        )
    print(f"nbar_full={diagram.nbar_full} nbar_zero={diagram.nbar_zero}")
    if args.out:
        experiments.emit_results(diagram, args.out)
    return 0


def _cmd_trip(args) -> int:
    rank, seed = _solver_rank(args), check_count("seed", args.seed, 0)
    _check_out(args.out)
    # sample i takes [seed, i]; numpy pads seed lists with zeros, so `seed` alone is sample 0's stream
    A = measurements.draw(args.ensemble, args.shape, args.m, [seed, 0, 1])
    est = analysis.trip_estimate(A, args.format, rank, args.samples, seed=seed)
    experiments.write_json(
        args.out,
        {
            "ensemble": args.ensemble,
            "format": args.format,
            "shape": list(args.shape),
            "rank": rank,
            "m": args.m,
            "samples": est.n_samples,
            "delta_hat": est.delta_hat,
        },
    )
    return 0


def _cmd_bounds(args) -> int:
    _check_out(args.out)  # the formulas check the inputs, and they are all the work there is
    sc = analysis.sample_complexity(args.format, args.d, args.n, args.r, args.delta, args.fail_prob)
    payload = {
        "format": args.format,
        "d": args.d,
        "n": args.n,
        "r": args.r,
        "delta": args.delta,
        "fail_prob": args.fail_prob,
        "eta": args.eta,
        "eps": args.eps,
        "sample_complexity": sc.bound,
        "dof_term": sc.dof_term,
        "fourier_sample_complexity": analysis.fourier_sample_complexity(
            args.format, args.d, args.n, args.r, args.delta, args.eta
        ),
        "covering_bound": analysis.covering_bound(args.format, args.d, args.n, args.r, args.eps),
        "storage_count": analysis.storage_count(args.format, args.d, args.n, args.r),
    }
    if args.a is not None:
        consts = analysis.convergence_constants(args.variant, args.a, args.delta3r, args.opnorm)
        payload["convergence"] = asdict(consts)
    experiments.write_json(args.out, payload)
    return 0


_COMMANDS = {
    "recover": _cmd_recover,
    "phase": _cmd_phase,
    "trip": _cmd_trip,
    "bounds": _cmd_bounds,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        parser.exit(2, f"tiht {args.command}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

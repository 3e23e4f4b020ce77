"""Command-line interface: single-instance recovery, phase sweeps, restricted
isometry estimation and the bound formulas.

Exit status is 0 on completion and 2 on argument errors (argparse's
convention).  TIHT_THREADS caps the phase-sweep worker pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import analysis, experiments, measurements, solvers
from .formats import FORMATS, mode_sets

__all__ = ["main", "build_parser"]


def _parse_shape(text: str) -> tuple[int, ...]:
    parts = text.replace("x", ",").split(",")
    return tuple(int(p) for p in parts if p)


def _parse_rank(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p)


def _parse_grid(text: str) -> tuple[int, ...]:
    """Comma list ("3,8,24") and/or ranges ("1:30" or "5:50:5")."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = [int(p) for p in part.split(":")]
            if len(pieces) == 2:
                lo, hi, step = pieces[0], pieces[1], 1
            elif len(pieces) == 3:
                lo, hi, step = pieces
            else:
                raise ValueError(f"bad grid range {part!r}")
            values.extend(range(lo, hi + 1, step))
        else:
            values.append(int(part))
    if not values:
        raise ValueError(f"grid {text!r} holds no percentage")
    return tuple(sorted(set(values)))


def _default_grid() -> tuple[int, ...]:
    # step 1 where transitions usually happen at desk scale, step 5 above
    return tuple(range(1, 31)) + tuple(range(35, 101, 5))


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", type=_parse_shape, default=(10, 10, 10), help="tensor extents, e.g. 10x10x10")
    p.add_argument(
        "--rank",
        type=_parse_rank,
        default=None,
        help="rank tuple, e.g. 1,1,1 (HOSVD: one per mode, TT: one per prefix) or one int for HT;"
        " default all ones, 1 for HT",
    )
    p.add_argument("--format", choices=FORMATS, default="hosvd")
    p.add_argument("--ensemble", choices=measurements.ENSEMBLES, default="gaussian")
    p.add_argument("--seed", type=int, default=0)


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=solvers.VARIANTS, default="ntiht")
    p.add_argument("--max-iters", type=int, default=5000)
    p.add_argument("--conv-tol", type=float, default=1e-4)
    p.add_argument("--threshold", type=float, default=None, help="success threshold on the final error")


def _solver_rank(args):
    if args.rank is None:  # all ones, one per mode set of the format
        return 1 if args.format == "ht" else (1,) * len(mode_sets(args.format, len(args.shape)))
    # an HT rank is one int, so --rank r means r; clamp_ranks rejects any other HT form
    return args.rank[0] if args.format == "ht" and len(args.rank) == 1 else args.rank


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tiht", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="recover one seeded random instance")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--nbar", type=int, default=None, help="measurements as percent of N")
    p.add_argument("--m", type=int, default=None, help="absolute measurement count")
    p.add_argument("--trace-out", default=None, help="write the iteration trace as CSV")
    p.add_argument("--out", default=None, help="write the JSON summary here instead of stdout")

    p = sub.add_parser("phase", help="sweep a measurement-percentage grid")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--grid", type=_parse_grid, default=None, help="e.g. 3,8,24 or 1:30 or 5:50:5")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", default=None, help="results file: JSON when it ends in .json, else CSV")

    p = sub.add_parser("trip", help="estimate the restricted isometry constant")
    _add_problem_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="evaluate the sample-complexity and covering formulas")
    p.add_argument("--format", choices=FORMATS, default="hosvd")
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
    p.add_argument("--variant", choices=solvers.VARIANTS, default="ntiht")
    p.add_argument("--out", default=None)
    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_recover(args) -> int:
    if (args.nbar is None) == (args.m is None):
        raise ValueError("recover needs exactly one of --nbar / --m")
    threshold = experiments.success_threshold(args.ensemble, args.threshold)
    shape = args.shape
    m = args.m if args.m is not None else experiments.measurement_count(shape, args.nbar)
    rank = _solver_rank(args)
    X0 = experiments.random_rank_r_tensor(shape, args.format, rank, [args.seed, 0])
    A = measurements.draw(args.ensemble, shape, m, [args.seed, 1])
    y = A.apply(X0)
    config = solvers.SolverConfig(
        rank=rank,
        variant=args.variant,
        format=args.format,
        max_iters=args.max_iters,
        conv_tol=args.conv_tol,
    )
    result = solvers.tiht_run(A, y, config, X_ref=X0, success_threshold=threshold)
    if args.trace_out:
        solvers.export_trace_csv(result, args.trace_out)
    _emit(
        {
            "ensemble": args.ensemble,
            "variant": args.variant,
            "format": args.format,
            "shape": list(shape),
            "rank": list(rank) if isinstance(rank, tuple) else rank,
            "m": m,
            "iterations": result.iterations,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "final_error": result.final_error,
            "success": result.success,
            "final_residual": float(result.residuals[-1]),
        },
        args.out,
    )
    return 0


def _cmd_phase(args) -> int:
    rank = _solver_rank(args)
    spec = experiments.ExperimentSpec(
        shape=args.shape,
        rank=rank,
        ensemble=args.ensemble,
        variant=args.variant,
        format=args.format,
        grid=_default_grid() if args.grid is None else args.grid,
        trials=args.trials,
        threshold=args.threshold,
        seed=args.seed,
        max_iters=args.max_iters,
        conv_tol=args.conv_tol,
    )
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
    rank = _solver_rank(args)
    A = measurements.draw(args.ensemble, args.shape, args.m, args.seed)
    est = analysis.trip_estimate(A, args.format, rank, args.samples, seed=args.seed)
    _emit(
        {
            "ensemble": args.ensemble,
            "format": args.format,
            "shape": list(args.shape),
            "rank": list(rank) if isinstance(rank, tuple) else rank,
            "m": args.m,
            "samples": est.n_samples,
            "delta_hat": est.delta_hat,
        },
        args.out,
    )
    return 0


def _cmd_bounds(args) -> int:
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
    _emit(payload, args.out)
    return 0


_COMMANDS = {
    "recover": _cmd_recover,
    "phase": _cmd_phase,
    "trip": _cmd_trip,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"tiht {args.command}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

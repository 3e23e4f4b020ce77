"""The one real-number rule: a tolerance, success threshold, probability,
covering radius or theorem constant is a finite int, float or NumPy real in
its interval; a string, a bool, NaN, an infinity or a value outside the
interval is a ValueError that names the input and the interval.
"""

import math
import re

import numpy as np
import pytest

import tiht.solvers
from tiht.analysis import convergence_constants, covering_bound, fourier_sample_complexity, sample_complexity
from tiht.cli import main
from tiht.experiments import success_threshold
from tiht.formats import hosvd_random
from tiht.measurements import draw
from tiht.solvers import SolverConfig, tiht_run

X0 = hosvd_random((3, 3, 3), (1, 1, 1), 0)
A = draw("gaussian", (3, 3, 3), 20, 1)


def _run(threshold):
    result = tiht_run(A, A.apply(X0), SolverConfig(rank=(1, 1, 1), max_iters=3), X_ref=X0, success_threshold=threshold)
    return result.tensor, result.iterations, result.final_error, result.success


# entry point: (the name its error gives the input, its interval, a call with the real v, a valid v)
REALS = {
    "SolverConfig-conv_tol": ("conv_tol", "(0, inf)", lambda v: SolverConfig(rank=(1, 1, 1), conv_tol=v), 1e-4),
    "success_threshold": ("success_threshold", "(0, inf)", lambda v: success_threshold("gaussian", v), 1e-3),
    "tiht_run-success_threshold": ("success_threshold", "(0, inf)", _run, 1e-3),
    "sample_complexity-delta": ("delta", "(0, 1)", lambda v: sample_complexity("hosvd", 3, 10, 1, v, 0.01), 0.5),
    "sample_complexity-fail_prob": ("fail_prob", "(0, 1)", lambda v: sample_complexity("tt", 3, 10, 2, 0.5, v), 1e-100),
    "fourier_sample_complexity-delta": ("delta", "(0, 1)", lambda v: fourier_sample_complexity("ht", 4, 5, 2, v, 1.0), 0.3),
    "fourier_sample_complexity-eta": ("eta", "(0, inf)", lambda v: fourier_sample_complexity("hosvd", 3, 10, 1, 0.5, v), 2.0),
    "covering_bound-eps": ("eps", "(0, 1]", lambda v: covering_bound("tt", 3, 10, 2, v), 0.25),
    "convergence_constants-a": ("a", "(0, 1)", lambda v: convergence_constants("ntiht", v, 0.1, 2.0), 0.5),
    "convergence_constants-delta3r": ("delta3r", "[0, 1)", lambda v: convergence_constants("ntiht", 0.5, v, 2.0), 0.1),
    "convergence_constants-opnorm": ("opnorm", "(0, inf)", lambda v: convergence_constants("ctiht", 0.5, 0.1, v), 2.0),
}


def _outside(interval):
    """A value just outside each finite end: the end itself when it is open, the next float beyond it when closed."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    values = [lo if interval[0] == "(" else float(np.nextafter(lo, -math.inf))]
    if math.isfinite(hi):
        values.append(hi if interval[-1] == ")" else float(np.nextafter(hi, math.inf)))
    return values


@pytest.mark.parametrize("name, interval, call, valid", REALS.values(), ids=REALS)
def test_a_real_is_finite_and_in_its_interval(name, interval, call, valid):
    for value in ["0.5", True, math.nan, math.inf, -math.inf, *_outside(interval)]:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a finite real in {interval}, got {value!r}")):
            call(value)


@pytest.mark.parametrize("name, interval, call, valid", REALS.values(), ids=REALS)
def test_a_numpy_real_gives_the_same_output_as_its_python_float(name, interval, call, valid):
    same, other = call(np.float64(valid)), call(valid)
    if isinstance(same, tuple):  # a run: its iterate, iteration count, error and success flag
        assert np.array_equal(same[0], other[0]) and same[1:] == other[1:]
    else:
        assert repr(same) == repr(other)


def test_the_closed_ends_are_accepted():
    assert covering_bound("hosvd", 3, 10, 1, 1) == covering_bound("hosvd", 3, 10, 1, 1.0)
    assert convergence_constants("ntiht", 0.5, 0, 1.0) == convergence_constants("ntiht", 0.5, 0.0, 1.0)


def test_tiht_run_checks_its_threshold_before_the_first_iteration(monkeypatch):
    def no_truncation(*args, **kwargs):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(tiht.solvers, "truncate", no_truncation)
    with pytest.raises(ValueError, match="success_threshold"):
        _run("1e-3")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["bounds", "--eta", "nan"], "eta"),
        (["bounds", "--a", "0.5", "--opnorm", "inf"], "opnorm"),
        (["bounds", "--delta", "1"], "delta"),
        (["bounds", "--eps", "0"], "eps"),
        (["recover", "--shape", "4x4x4", "--nbar", "50", "--conv-tol", "inf"], "conv_tol"),
        (["phase", "--shape", "4x4x4", "--grid", "50", "--trials", "1", "--threshold", "nan"], "success_threshold"),
    ],
    ids=["eta-nan", "opnorm-inf", "delta-1", "eps-0", "conv-tol-inf", "threshold-nan"],
)
def test_the_cli_exits_with_status_2_and_names_a_bad_real(argv, name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{name} must be a finite real" in capsys.readouterr().err

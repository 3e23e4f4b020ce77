"""Layer tracing from outside tiht: wraps the package's public functions in spans.

A span records one call's wall time.  Its self time is that duration minus
the time of the spans opened inside it, so the self times of all spans and
the untraced remainder add up to the traced wall time.  Counters only count
calls.  ``instrument`` installs the wrappers and ``Tracer.restore`` removes
them; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.iterations = 0
        self._open: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def counter(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every tiht module that imported it."""
        for name, module in list(sys.modules.items()):
            if name != "tiht" and not name.startswith("tiht."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _ModuleView:
    """A module's attributes, with some of them replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def instrument(tracer: Tracer, tiht) -> None:
    """Wrap each layer's entry points; see README "Per-layer metrics"."""
    import numpy as np

    measurements = tiht.measurements
    for cls in (measurements.GaussianEnsemble, measurements.FourierEnsemble, measurements.CompletionEnsemble):
        tracer.patch(cls, "apply", tracer.span("measurements.apply", cls.apply))
        tracer.patch(cls, "adjoint", tracer.span("measurements.adjoint", cls.adjoint))

    formats = tiht.formats
    truncate = formats.truncate
    tracer.patch_everywhere(truncate, tracer.span("formats.truncate", truncate))
    for cls in (formats.HosvdDecomposition, formats.TTDecomposition, formats.HTDecomposition):
        tracer.patch(cls, "reconstruct", tracer.span("formats.reconstruct", cls.reconstruct))
    tracer.patch(np.linalg, "svd", tracer.span("linalg.svd", np.linalg.svd))

    tensors = tiht.tensors
    for name in ("matricize", "tensorize", "mode_product"):
        original = getattr(tensors, name)
        tracer.patch_everywhere(original, tracer.counter(f"tensors.{name}", original))

    solvers = tiht.solvers
    tracer.patch_everywhere(solvers.build_Mj, tracer.span("solvers.build_Mj", solvers.build_Mj))
    tracer.patch(solvers.RankProjector, "__call__", tracer.span("solvers.projector", solvers.RankProjector.__call__))

    def count_iterations(result):
        tracer.iterations += result.iterations

    run = solvers.tiht_run
    tracer.patch_everywhere(run, tracer.span("solvers.tiht_run", run, on_result=count_iterations))

    experiments = tiht.experiments
    tracer.patch_everywhere(
        experiments.measurements_for, tracer.span("experiments.instance", experiments.measurements_for)
    )
    tracer.patch_everywhere(
        experiments.run_phase_diagram, tracer.span("experiments.harness", experiments.run_phase_diagram)
    )

    # The CLI builds its instance from the test tensor and the ensemble draw;
    # both count as instance work, so that cli.self_s keeps only argparse and
    # the JSON output.
    cli = tiht.cli
    tracer.patch(
        cli,
        "experiments",
        _ModuleView(
            experiments,
            random_rank_r_tensor=tracer.span("experiments.instance", experiments.random_rank_r_tensor),
        ),
    )
    tracer.patch(
        cli, "measurements", _ModuleView(measurements, draw=tracer.span("experiments.instance", measurements.draw))
    )
    tracer.patch(cli, "main", tracer.span("cli", cli.main))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, as name -> (value, unit)."""
    calls, self_s = tracer.calls, tracer.self_s
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "measurements.apply",
        "measurements.adjoint",
        "formats.truncate",
        "formats.reconstruct",
        "linalg.svd",
        "solvers.build_Mj",
        "solvers.projector",
        "experiments.instance",
    ):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("matricize", "tensorize", "mode_product"):
        out[f"tensors.{name}.calls"] = (calls[f"tensors.{name}"], "count")
    iterations = tracer.iterations
    truncations = calls["formats.truncate"]
    out["solvers.iterations"] = (iterations, "count")
    out["solvers.safeguard_retries"] = (truncations - iterations, "count")
    out["solvers.truncations_per_iter"] = (truncations / iterations if iterations else 0.0, "1/iter")
    out["solvers.tiht_run.self_s"] = (self_s["solvers.tiht_run"], "s")
    out["experiments.harness.self_s"] = (self_s["experiments.harness"], "s")
    out["cli.self_s"] = (self_s["cli"], "s")
    return out

"""The one name rule: a format, variant or ensemble name is a str from its
fixed list; anything else, a list holding a valid name or None too, is a
ValueError that names the input and lists the choices.
"""

import re

import numpy as np
import pytest

from tiht.analysis import (
    convergence_constants,
    covering_bound,
    fourier_sample_complexity,
    sample_complexity,
    storage_count,
)
from tiht.experiments import ExperimentSpec, success_threshold
from tiht.formats import FORMATS, mode_sets, random_rank_r_tensor, truncate
from tiht.measurements import ENSEMBLES, draw
from tiht.solvers import VARIANTS, SolverConfig

X = np.random.default_rng(0).standard_normal((3, 3, 3))


def _spec(**kwargs):
    return ExperimentSpec(shape=(4, 4, 4), rank=(1, 1, 1), grid=(50,), **kwargs)


# entry point: (the name its error gives the input, its choices, a call with the name v)
CHOICES = {
    "SolverConfig-variant": ("variant", VARIANTS, lambda v: SolverConfig(rank=(1, 1, 1), variant=v)),
    "SolverConfig-format": ("format", FORMATS, lambda v: SolverConfig(rank=(1, 1, 1), format=v)),
    "success_threshold": ("ensemble", ENSEMBLES, lambda v: success_threshold(v, 1e-3)),
    "draw": ("ensemble", ENSEMBLES, lambda v: draw(v, (3, 3, 3), 5, 0)),
    "sample_complexity": ("format", FORMATS, lambda v: sample_complexity(v, 3, 10, 1, 0.5, 0.01)),
    "fourier_sample_complexity": ("format", FORMATS, lambda v: fourier_sample_complexity(v, 3, 10, 1, 0.5, 1.0)),
    "covering_bound": ("format", FORMATS, lambda v: covering_bound(v, 3, 10, 1, 0.5)),
    "storage_count": ("format", FORMATS, lambda v: storage_count(v, 3, 10, 1)),
    "convergence_constants": ("variant", VARIANTS, lambda v: convergence_constants(v, 0.5, 0.1, 2.0)),
    "mode_sets": ("format", FORMATS, lambda v: mode_sets(v, 3)),
    "random_rank_r_tensor": ("format", FORMATS, lambda v: random_rank_r_tensor((3, 3, 3), v, (1, 1, 1), 0)),
    "truncate": ("format", FORMATS, lambda v: truncate(X, v, (1, 1, 1))),
    "ExperimentSpec-variant": ("variant", VARIANTS, lambda v: _spec(variant=v)),
    "ExperimentSpec-format": ("format", FORMATS, lambda v: _spec(format=v)),
    "ExperimentSpec-ensemble": ("ensemble", ENSEMBLES, lambda v: _spec(ensemble=v)),
}


@pytest.mark.parametrize("name, choices, call", CHOICES.values(), ids=CHOICES)
@pytest.mark.parametrize("bad", ["unknown", "none", "list", "int"])
def test_a_name_is_a_str_from_its_choices(name, choices, call, bad):
    value = {"unknown": "bogus", "none": None, "list": [choices[0]], "int": 1}[bad]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be one of {', '.join(choices)}, got {value!r}")):
        call(value)
    call(choices[0])

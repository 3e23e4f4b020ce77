"""Order 2 as an exact anchor: at d = 2 each format's rank is one matrix rank.

HOSVD (r, r), TT (r,) and HT r over the tree (0, 1) all truncate to the
Eckart-Young rank-r matrix, so CTIHT, which builds no projector, runs one
matrix IHT in every format.  NTIHT's M^j comes from ``blocks()``: HOSVD and
HT frame both modes (the two-sided P_U Z P_V), TT's one split frames only
the first (P_U Z).
"""

import numpy as np
import pytest

from tiht.experiments import measurement_count, random_rank_r_tensor
from tiht.formats import truncate
from tiht.measurements import draw
from tiht.solvers import SolverConfig, tiht_run
from tiht.tensors import frobenius_norm

SHAPE = (20, 20)
RANKS = {"hosvd": (2, 2), "tt": (2,), "ht": 2}


def _relative(a, b) -> float:
    return frobenius_norm(a - b) / frobenius_norm(b)


def _run(fmt, variant, ensemble, nbar):
    X0 = random_rank_r_tensor(SHAPE, "hosvd", (2, 2), [5, 0])
    A = draw(ensemble, SHAPE, measurement_count(SHAPE, nbar), [5, nbar])
    return tiht_run(A, A.apply(X0), SolverConfig(rank=RANKS[fmt], variant=variant, format=fmt), X_ref=X0)


def test_every_truncation_is_the_rank_2_svd():
    Z = np.random.default_rng(3).standard_normal(SHAPE)
    U, s, Vt = np.linalg.svd(Z)
    best = (U[:, :2] * s[:2]) @ Vt[:2]
    frames = {}
    for fmt, rank in RANKS.items():
        D = truncate(Z, fmt, rank)
        assert _relative(D.reconstruct(), best) <= 1e-14, fmt
        frames[fmt] = [modes for modes, _ in D.blocks()]
    assert frames == {"hosvd": [(0,), (1,)], "tt": [(0,)], "ht": [(0,), (1,)]}


def test_ctiht_is_one_matrix_iht_in_every_format():
    runs = {fmt: _run(fmt, "ctiht", "completion", 50) for fmt in RANKS}
    for fmt, run in runs.items():
        assert (run.iterations, run.stop_reason) == (172, "converged"), fmt
        assert _relative(run.tensor, runs["hosvd"].tensor) <= 1e-12, fmt


@pytest.mark.parametrize(
    "ensemble, nbar, iterations", [("gaussian", 50, 60), ("fourier", 30, 99), ("completion", 50, 141)]
)
def test_hosvd_and_ht_ntiht_share_their_two_sided_projector(ensemble, nbar, iterations):
    hosvd, ht = _run("hosvd", "ntiht", ensemble, nbar), _run("ht", "ntiht", ensemble, nbar)
    assert hosvd.iterations == ht.iterations == iterations
    assert hosvd.stop_reason == ht.stop_reason == "converged"
    assert _relative(ht.tensor, hosvd.tensor) <= 1e-12

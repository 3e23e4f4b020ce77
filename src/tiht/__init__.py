"""Low-rank tensor recovery by iterative hard thresholding.

Dense tensors are numpy arrays (float64 or complex128) with a single
colexicographic linearization rule; on top of that sit three low-rank
formats (HOSVD, TT, HT) with successive-SVD truncation, three measurement
ensembles (Gaussian, randomized Fourier, completion) with exact adjoints,
the CTIHT/NTIHT solvers, a restricted-isometry/bounds layer, and a phase
transition experiment harness with a CLI.
"""

from .tensors import (
    frobenius_norm,
    inner_product,
    matricize,
    mode_product,
    tensorize,
    unvec,
    vec,
)
from .formats import (
    DegenerateTensorError,
    DimensionTree,
    HosvdDecomposition,
    HTDecomposition,
    TTDecomposition,
    hosvd_decompose,
    hosvd_rank,
    hosvd_truncate,
    ht_rank,
    ht_right_orthogonalize,
    ht_truncate,
    truncate,
    tt_rank,
    tt_truncate,
)
from .measurements import (
    CompletionEnsemble,
    FourierEnsemble,
    GaussianEnsemble,
    draw,
    ensemble_spec,
    from_spec,
    operator_norm,
)
from .solvers import (
    RecoveryResult,
    SolverConfig,
    build_Mj,
    ctiht_step_size,
    monitor_eps_condition,
    ntiht_step_size,
    tiht_run,
)
from .analysis import (
    ConvergenceConstants,
    TripEstimate,
    convergence_constants,
    covering_bound,
    fourier_sample_complexity,
    sample_complexity,
    storage_count,
    trip_estimate,
)
from .experiments import (
    ExperimentSpec,
    PhaseCell,
    PhaseDiagram,
    emit_results,
    generate_test_tensor,
    load_results,
    run_phase_diagram,
    run_single_trial,
)
from .io import load_decomposition, load_tensor, save_decomposition, save_tensor

__version__ = "0.1.0"

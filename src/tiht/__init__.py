"""Low-rank tensor recovery by iterative hard thresholding.

Dense tensors are numpy arrays (float64 or complex128) with a single
colexicographic linearization rule; on top of that sit three low-rank
formats (HOSVD, TT, HT) with successive-SVD truncation, three measurement
ensembles (Gaussian, randomized Fourier, completion) with exact adjoints,
the CTIHT/NTIHT solvers, a restricted-isometry/bounds layer, and a phase
transition experiment harness with a CLI.

The top level holds what a first run needs: a test tensor
(``generate_test_tensor``), an ensemble (``draw``) and the solver
(``tiht_run`` under a ``SolverConfig``).  Everything else lives in its
submodule.
"""

from .experiments import generate_test_tensor
from .measurements import draw
from .solvers import SolverConfig, tiht_run

__all__ = ["generate_test_tensor", "draw", "tiht_run", "SolverConfig"]

__version__ = "0.1.0"

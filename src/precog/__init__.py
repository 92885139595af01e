"""Learned unitary split preconditioners over graph Laplacian edge weights.

The package learns a data-dependent orthonormal transform by gradient
descent on graph edge weights, scores it against classical preconditioners
(DCT, DFT, Jacobi, Gauss-Seidel, SOR, SSOR, ILU(0)), and demonstrates the
effect on transform-domain LMS convergence.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .baselines import (
    METHOD_NAMES,
    Preconditioner,
    baseline_cond,
    condition_ratio,
    dct_matrix,
    dft_matrix,
    dft_split_cond,
    gauss_seidel_precond,
    ilu0_precond,
    jacobi_precond,
    none_cond,
    sor_precond,
    ssor_precond,
)
from .graph import (
    Topology,
    WeightedGraph,
    banded_topology,
    full_topology,
    laplacian,
    theta,
)
from .learn import (
    HyperParams,
    IterationRecord,
    PrecogResult,
    cost_E,
    cost_EN,
    dL_du,
    grad_E_wrt_U,
    grad_EN_wrt_w,
    is_degenerate,
    optimize,
)
from .matgen import (
    MatrixSpec,
    SignalSpec,
    ar1_autocorr,
    ar1_signal,
    ar2_autocorr,
    ar2_coefficients,
    ar2_signal,
    density,
    hilbert,
    load_matrix,
    random_pd,
    random_sparse_pd,
    save_matrix,
)
from .spectral import (
    NormalizedAutocorr,
    SpectralPair,
    cond_general,
    cond_spd,
    orthonormality_error,
    power_normalize,
    split_preconditioned_cond,
    sym_eig,
)
from .tdlms import (
    FilterConfig,
    MseTrace,
    system_id_experiment,
)

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]

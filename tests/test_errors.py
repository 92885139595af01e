"""One check per input fact: every entry point rejects malformed input with a PrecogError."""

import os
import re

import numpy as np
import pytest

from precog.baselines import (
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
from precog.errors import (
    InvalidDimensionError,
    InvalidInputError,
    NormalizationDomainError,
)
from precog.graph import Topology, WeightedGraph, banded_topology, full_topology, theta
from precog.learn import HyperParams, cost_E, dL_du, optimize
from precog.matgen import (
    MatrixSpec,
    SignalSpec,
    ar1_autocorr,
    ar1_signal,
    ar2_autocorr,
    ar2_coefficients,
    ar2_signal,
    density,
    hilbert,
    random_pd,
    random_sparse_pd,
    save_matrix,
)
from precog.spectral import (
    cond_general,
    cond_spd,
    orthonormality_error,
    split_preconditioned_cond,
    sym_eig,
)
from precog.tdlms import FilterConfig, check_run, system_id_experiment

NON_SQUARE = np.ones((2, 3))
EMPTY = np.zeros((0, 0))
# Hermitian with eigenvalues 2 +- sqrt(10), so not positive definite, though its real
# part [[2, 1], [1, 2]] is: a real cast would score it 3.0
HERMITIAN = np.array([[2.0, 1.0 + 3.0j], [1.0 - 3.0j, 2.0]])
GRAPH = WeightedGraph(banded_topology(3, 1), np.ones(2))
PAIR = sym_eig(np.diag([1.0, 2.0, 3.0]))

# (callable, arguments, expected class, message needle)
MALFORMED = {
    # counts
    "ar1_autocorr-float-n": (ar1_autocorr, (3.5, 0.5), InvalidInputError, "n must be an integer"),
    "hilbert-float-n": (hilbert, (2.5,), InvalidInputError, "n must be an integer"),
    "dct_matrix-float-n": (dct_matrix, (2.5,), InvalidInputError, "n must be an integer"),
    "dft_matrix-float-n": (dft_matrix, (2.5,), InvalidInputError, "n must be an integer"),
    "ar1_signal-float-length": (ar1_signal, (2.5, 0.5, 0), InvalidInputError,
                                "length must be an integer"),
    "full_topology-float-n": (full_topology, (3.0,), InvalidInputError, "n must be an integer"),
    "banded_topology-float-band": (banded_topology, (5, 1.5), InvalidInputError,
                                   "band must be an integer"),
    "topology-one-vertex": (Topology, (1, ()), InvalidDimensionError, "n must be at least 2"),
    "random_pd-negative-seed": (random_pd, (3, -1), InvalidDimensionError,
                                "seed must be nonnegative"),
    "random_sparse_pd-negative-seed": (random_sparse_pd, (4, 0.5, -1), InvalidDimensionError,
                                       "seed must be nonnegative"),
    # seeds
    "random_pd-seed-2**64": (random_pd, (3, 2**64), InvalidDimensionError,
                             "seed must lie in [0, 2**64), got 18446744073709551616"),
    "system_id-seed-2**64": (system_id_experiment, (np.ones(2), SignalSpec("white"), 30.0,
                                                    FilterConfig(2, 0.01), 10, 2**64),
                             InvalidDimensionError, "seed must lie in [0, 2**64)"),
    "ar1_signal-negative-seed": (ar1_signal, (10, 0.5, -1), InvalidDimensionError,
                                 "seed must be nonnegative"),
    "ar2_signal-negative-seed": (ar2_signal, (10, 0.5, 0.2, -1), InvalidDimensionError,
                                 "seed must be nonnegative"),
    "ar1_signal-float-seed": (ar1_signal, (10, 0.5, 1.5), InvalidInputError,
                              "seed must be an integer"),
    # indices
    "theta-float-index": (theta, (GRAPH, 1.5), InvalidInputError,
                          "edge_index must be an integer"),
    "theta-bool-index": (theta, (GRAPH, True), InvalidInputError,
                         "edge_index must be an integer"),
    "dL_du-float-index": (dL_du, (PAIR, 1.5, 0), InvalidInputError, "k must be an integer"),
    "topology-float-endpoint": (Topology, (3, ((0, 1.5),)), InvalidInputError,
                                "edge endpoints must be integers"),
    # bounded reals
    "random_sparse_pd-bool-density": (random_sparse_pd, (4, True, 0), InvalidInputError,
                                      "density must be a real number"),
    "baseline_cond-bool-omega": (baseline_cond, ("sor", ar1_autocorr(4, 0.5), True),
                                 InvalidInputError, "omega must be a real number"),
    # finite reals
    "hyperparams-huge-int-beta": (lambda: HyperParams(beta=10**400), (), InvalidInputError,
                                  "beta must be finite"),
    "hyperparams-inf-mu": (lambda: HyperParams(mu=np.inf), (), InvalidInputError,
                           "mu must be finite"),
    "check_run-huge-int-noise": (check_run, (10, 10**400), InvalidInputError,
                                 "noise_db must be finite"),
    "hilbert-nan-alpha": (hilbert, (4, np.nan), InvalidInputError, "alpha must be finite"),
    "random_pd-inf-reg": (random_pd, (4, 0, np.inf), InvalidInputError, "reg must be finite"),
    "random_sparse_pd-nan-margin": (random_sparse_pd, (4, 0.5, 0, np.nan), InvalidInputError,
                                    "shift_margin must be finite"),
    "condition_ratio-nan": (condition_ratio, (np.nan, 1.0), InvalidInputError,
                            "cond_method must be finite"),
    # AR(2) poles
    "ar2_autocorr-bool-rho1": (ar2_autocorr, (4, False, 0.5), InvalidInputError,
                               "rho1 must be a real number"),
    "ar2_autocorr-str-rho2": (ar2_autocorr, (4, 0.5, "x"), InvalidInputError,
                              "rho2 must be a real number"),
    "ar2_coefficients-complex-rho1": (ar2_coefficients, (0.5j, 0.1), InvalidInputError,
                                      "rho1 must be a real number"),
    "ar2_signal-none-rho2": (ar2_signal, (10, 0.5, None, 0), InvalidInputError,
                             "rho2 must be a real number"),
    "signal_spec-str-rho2": (lambda: SignalSpec("ar2", rho1=0.5, rho2="x").autocorr(4), (),
                             InvalidInputError, "rho2 must be a real number"),
    "ar2_autocorr-nan-rho1": (ar2_autocorr, (4, np.nan, 0.5), InvalidInputError,
                              "rho1 must be finite"),
    # square matrices
    "split_cond-size-mismatch": (split_preconditioned_cond, (ar1_autocorr(6, 0.9), np.eye(5)),
                                 InvalidDimensionError, "shape mismatch"),
    "cost_E-non-finite-R": (cost_E, (np.full((2, 2), np.nan), np.eye(2), 0.1, 0.1),
                            InvalidInputError, "R has non-finite entries"),
    "cond_spd-non-square": (cond_spd, (NON_SQUARE,), InvalidDimensionError, "must be square"),
    "cond_general-non-square": (cond_general, (NON_SQUARE,), InvalidDimensionError,
                                "must be square"),
    "cond_general-1-d": (cond_general, (np.ones(3),), InvalidDimensionError, "must be square"),
    "jacobi-non-square": (jacobi_precond, (NON_SQUARE,), InvalidDimensionError, "must be square"),
    "gauss-seidel-non-square": (gauss_seidel_precond, (NON_SQUARE,), InvalidDimensionError,
                                "must be square"),
    "sor-non-square": (sor_precond, (NON_SQUARE,), InvalidDimensionError, "must be square"),
    "ssor-non-square": (ssor_precond, (NON_SQUARE,), InvalidDimensionError, "must be square"),
    "ilu0-non-square": (ilu0_precond, (NON_SQUARE,), InvalidDimensionError, "must be square"),
    "orthonormality_error-1-d": (orthonormality_error, (np.ones(3),), InvalidDimensionError,
                                 "U must be square"),
    "orthonormality_error-3-d": (orthonormality_error, (np.ones((2, 3, 3)),),
                                 InvalidDimensionError, "U must be square"),
    "orthonormality_error-non-square": (orthonormality_error, (NON_SQUARE,),
                                        InvalidDimensionError, "U must be square"),
    "orthonormality_error-empty": (orthonormality_error, (EMPTY,), InvalidDimensionError,
                                   "U must not be empty"),
    "orthonormality_error-non-finite": (orthonormality_error, (np.full((2, 2), np.nan),),
                                        InvalidInputError, "U has non-finite entries"),
    "save_matrix-non-finite": (save_matrix, (np.full((2, 2), np.inf), os.devnull),
                               InvalidInputError, "matrix has non-finite entries"),
    # real matrices: numpy's float cast would keep the real part and warn
    "cond_spd-complex": (cond_spd, (HERMITIAN,), InvalidInputError,
                         "matrix must be real, got complex128"),
    "optimize-complex-R": (optimize, (HERMITIAN, full_topology(2), HyperParams()),
                           InvalidInputError, "matrix must be real, got complex128"),
    "split_cond-complex-U": (split_preconditioned_cond, (ar1_autocorr(6, 0.9), dft_matrix(6)),
                             InvalidInputError, "U must be real, got complex128"),
    "filter_config-complex-transform": (FilterConfig, (6, 0.1, dft_matrix(6)), InvalidInputError,
                                        "transform must be real, got complex128"),
    "system_id-complex-plant": (system_id_experiment, (np.ones(2) + 0j, SignalSpec("white"), 30.0,
                                                       FilterConfig(2, 0.01), 10, 0),
                                InvalidInputError, "plant must be real, got complex128"),
    "weighted_graph-complex-w": (WeightedGraph, (GRAPH.topology, np.ones(2) + 0j),
                                 InvalidInputError, "edge weights must be real, got complex128"),
    "orthonormality_error-complex": (orthonormality_error, (dft_matrix(3),), InvalidInputError,
                                     "U must be real, got complex128"),
    "cond_spd-strings": (cond_spd, ([["a"]],), InvalidInputError, "matrix must be real, got <U1"),
    "weighted_graph-object-w": (WeightedGraph, (GRAPH.topology, np.array([1.0, 1j], object)),
                                InvalidInputError, "edge weights must be real, got object"),
    # nonempty matrices
    "cond_spd-empty": (cond_spd, (EMPTY,), InvalidDimensionError, "matrix must not be empty"),
    "split_cond-empty": (split_preconditioned_cond, (EMPTY, EMPTY), InvalidDimensionError,
                         "R must not be empty"),
    "none_cond-empty": (none_cond, (EMPTY,), InvalidDimensionError, "matrix must not be empty"),
    "cond_general-empty": (cond_general, (EMPTY,), InvalidDimensionError,
                           "matrix must not be empty"),
    "ilu0-empty": (baseline_cond, ("ilu0", EMPTY), InvalidDimensionError, "A must not be empty"),
    "sym_eig-empty": (sym_eig, (EMPTY,), InvalidDimensionError, "matrix must not be empty"),
    "density-empty": (density, (EMPTY,), InvalidDimensionError, "matrix must not be empty"),
    # diagonal scaling
    "dft-negative-diagonal": (dft_split_cond, (-np.eye(3),), NormalizationDomainError,
                              "diagonal entry 0 is -1, must be positive"),
    # family parameters
    "matrix_spec-unknown-parameter": (lambda: MatrixSpec("ar1", 4, {"bogus": 1}), (),
                                      InvalidInputError, "ar1 parameters are ('rho',)"),
    "matrix_spec-unknown-family": (MatrixSpec, ("bogus",), InvalidInputError,
                                   "unknown matrix family 'bogus'"),
    "matrix_spec-file-without-path": (lambda: MatrixSpec("file").build(), (), InvalidInputError,
                                      "file family needs a path"),
}


@pytest.mark.filterwarnings("error")  # rejected, not cast or computed on with a warning
@pytest.mark.parametrize("fn, args, error, needle", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_raises_its_precog_error(fn, args, error, needle):
    with pytest.raises(error, match=re.escape(needle)):
        fn(*args)


def test_a_bad_size_is_malformed_input():
    assert issubclass(InvalidDimensionError, InvalidInputError)


def test_a_bad_index_is_an_index_error():
    assert issubclass(InvalidDimensionError, IndexError)


def _dft_split_cond_outer(R):
    # the DFT score with its former private scaling by np.outer, kept as the oracle
    F = dft_matrix(R.shape[0])
    Rt = F.conj().T @ R @ F
    inv_sqrt = 1.0 / np.sqrt(np.real(np.diag(Rt)))
    ev = np.linalg.eigvalsh(Rt * np.outer(inv_sqrt, inv_sqrt))
    return float(ev[-1] / ev[0])


@pytest.mark.parametrize("R", [
    ar1_autocorr(64, 0.9), hilbert(10, 1e-4), random_pd(12, 0, 1e-3), ar2_autocorr(32, 0.9, 0.5),
], ids=["ar1", "hilbert", "random-pd", "ar2"])
def test_dft_shared_scaling_is_bitwise_the_outer_product(R):
    oracle = _dft_split_cond_outer(R)
    assert np.float64(dft_split_cond(R)).tobytes() == np.float64(oracle).tobytes()

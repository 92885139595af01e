"""One check per input fact: every entry point rejects malformed input with a PrecogError."""

import os
import re

import numpy as np
import pytest

from precog.baselines import (
    condition_ratio,
    dct_matrix,
    dft_matrix,
    dft_split_cond,
    gauss_seidel_precond,
    ilu0_precond,
    jacobi_precond,
    sor_precond,
    ssor_precond,
)
from precog.errors import (
    InvalidDimensionError,
    InvalidInputError,
    NormalizationDomainError,
)
from precog.graph import Topology, banded_topology, full_topology
from precog.learn import HyperParams, cost_E
from precog.matgen import (
    MatrixSpec,
    ar1_autocorr,
    ar1_signal,
    ar2_autocorr,
    hilbert,
    random_pd,
    random_sparse_pd,
    save_matrix,
)
from precog.spectral import cond_general, cond_spd, split_preconditioned_cond
from precog.tdlms import check_run

NON_SQUARE = np.ones((2, 3))

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
    "save_matrix-non-finite": (save_matrix, (np.full((2, 2), np.inf), os.devnull),
                               InvalidInputError, "matrix has non-finite entries"),
    # diagonal scaling
    "dft-negative-diagonal": (dft_split_cond, (-np.eye(3),), NormalizationDomainError,
                              "diagonal entry 0 is -1, must be positive"),
    # family parameters
    "matrix_spec-unknown-parameter": (lambda: MatrixSpec("ar1", 4, {"bogus": 1}), (),
                                      InvalidInputError, "ar1 parameters are ('rho',)"),
}


@pytest.mark.parametrize("fn, args, error, needle", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_raises_its_precog_error(fn, args, error, needle):
    with pytest.raises(error, match=re.escape(needle)):
        fn(*args)


def test_a_bad_size_is_malformed_input():
    assert issubclass(InvalidDimensionError, InvalidInputError)


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

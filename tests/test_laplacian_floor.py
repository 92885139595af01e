"""The Laplacian floor as an oracle: no optimize record scores below it, and U* meets it.

Every graph Laplacian eigenbasis contains the column 1/sqrt(n), so no
record of optimize can beat the best split condition number over bases
with that column, which conftest.laplacian_floor computes in closed form.
"""

import numpy as np
import pytest
from conftest import laplacian_floor, rand_orthonormal

from precog.graph import banded_topology, full_topology
from precog.learn import HyperParams, optimize
from precog.matgen import ar1_autocorr, hilbert, random_pd, random_sparse_pd
from precog.spectral import split_preconditioned_cond

# criterion 3's 25 cells (full topology, seed s), then banded-2 AR(1) inputs
CELLS = [
    *(pytest.param(hilbert(10, 1e-4), full_topology, s, id=f"hilbert-s{s}") for s in range(5)),
    *(pytest.param(random_pd(10, s, 1e-3), full_topology, s, id=f"random_pd-s{s}")
      for s in range(5)),
    *(pytest.param(random_sparse_pd(12, dens, s), full_topology, s, id=f"sparse_pd-{label}-s{s}")
      for dens, label in ((5 / 6, "5/6"), (1 / 2, "1/2"), (1 / 5, "1/5")) for s in range(5)),
    *(pytest.param(ar1_autocorr(n, rho), lambda n: banded_topology(n, 2), s,
                   id=f"ar1-n{n}-rho{rho}-banded2")
      for s, (n, rho) in enumerate(((6, 0.5), (8, 0.9), (10, 0.95), (12, 0.8), (16, 0.9)))),
]
# each distinct R of CELLS once: the five hilbert cells share one
INPUTS = [pytest.param(p.values[0], id=p.id)
          for p in {p.values[0].tobytes(): p for p in CELLS}.values()]
# records may sit on the floor only to rounding; at max_iter=100 the closest record of
# CELLS was 1.043 times its floor (random_sparse_pd(12, 5/6, 3), seed 3; at max_iter=500
# it is 1.0052), with one BLAS thread on 2 shared vCPUs
RECORD_RTOL = 1e-9


def u_star(R: np.ndarray) -> np.ndarray:
    # [1/sqrt(n), C V]: C an orthonormal complement of 1 from QR of [1, e_1, ..., e_{n-1}],
    # V the eigenvectors of C^T R C
    n = R.shape[0]
    M = np.eye(n)
    M[:, 0] = 1.0
    Q, _ = np.linalg.qr(M)
    C = Q[:, 1:]
    _, V = np.linalg.eigh(C.T @ R @ C)
    return np.column_stack([Q[:, 0], C @ V])


@pytest.mark.parametrize("R, make, seed", CELLS)
def test_no_optimize_record_is_below_the_floor(R, make, seed):
    floor = laplacian_floor(R)
    res = optimize(R, make(R.shape[0]), HyperParams(seed=seed, max_iter=100))
    worst = min(rec.split_cond for rec in res.history)
    assert worst >= floor * (1.0 - RECORD_RTOL)


@pytest.mark.parametrize("R", INPUTS)
def test_u_star_meets_the_floor(R):
    assert split_preconditioned_cond(R, u_star(R)) == pytest.approx(laplacian_floor(R), rel=1e-12)


@pytest.mark.parametrize("R", INPUTS)
def test_random_bases_with_the_constant_column_stay_above_the_floor(R, rng):
    n = R.shape[0]
    floor = laplacian_floor(R)
    Q = u_star(R)
    for _ in range(5):
        U = np.column_stack([Q[:, 0], Q[:, 1:] @ rand_orthonormal(n - 1, rng)])
        assert split_preconditioned_cond(R, U) >= floor * (1.0 - 1e-12)


@pytest.mark.parametrize("first_row", [
    [3.0, 1.0, 0.5, 0.5, 1.0], [4.0, 1.0, 0.3, 0.3, 1.0], [2.0, 0.5, 0.0, 0.5],
    [5.0, 2.0, 1.0, 0.7, 1.0, 2.0],
])
def test_a_circulant_has_floor_one(first_row):
    # R1 = (sum of a row) 1, so sigma^2 is 0 up to rounding; its square root turns a
    # rounding of 1e-16 into 1e-8
    n = len(first_row)
    R = np.array([[first_row[(j - i) % n] for j in range(n)] for i in range(n)])
    assert laplacian_floor(R) == pytest.approx(1.0, abs=1e-7)
    assert split_preconditioned_cond(R, u_star(R)) == pytest.approx(1.0, rel=1e-12)

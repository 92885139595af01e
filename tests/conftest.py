"""Shared helpers for the test suite."""

import numpy as np
import pytest


def rand_spd(n: int, rng: np.random.Generator, reg: float = 0.1) -> np.ndarray:
    G = rng.standard_normal((n, n))
    return G.T @ G / n + reg * np.eye(n)


def rand_orthonormal(n: int, rng: np.random.Generator) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def laplacian_floor(R: np.ndarray) -> float:
    """Least split condition number of any orthonormal U that has 1/sqrt(n) as a column.

    Every graph Laplacian has the constant vector in its null space, so every
    eigenbasis optimize scores has that column.  Completing it by the
    eigenvectors of R's compression onto the complement of 1 reaches
    (1 + sigma)/(1 - sigma), sigma^2 = 1 - n^2/((1^T R 1)(1^T R^-1 1)); the
    second quadratic form comes from one Cholesky solve, and sigma^2 is
    clamped at 0 for rounding (an R with R1 proportional to 1 has floor 1).
    """
    n = R.shape[0]
    ones = np.ones(n)
    y = np.linalg.solve(np.linalg.cholesky(R), ones)  # 1^T R^-1 1 = |L^-1 1|^2
    sigma = np.sqrt(max(0.0, 1.0 - n * n / ((ones @ R @ ones) * (y @ y))))
    return float((1.0 + sigma) / (1.0 - sigma))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

"""Classical preconditioners, the baseline registry and the condition-ratio metric.

The fixed unitary transforms (DCT, DFT) share one route, which checks A
and scores the power-normalized congruence U^H A U; left preconditioners are
scored by the general condition number of M^{-1} A.  baseline_cond is the
one dispatch from a method name to its score.

Gauss-Seidel is SOR at omega = 1, and SSOR is built on SOR's splitting
D/omega + L (Saad, Iterative Methods for Sparse Linear Systems, 2003, 4.1).
A payload that overflows raises InvalidInputError without a numpy warning,
so bench writes it as a status row with nothing on stderr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IluBreakdownError,
    InvalidInputError,
    NumericallySingularError,
    _check_count,
    _check_real,
    _operand,
)
from .spectral import _check_square, _check_symmetric, _split_cond, cond_general

DEFAULT_OMEGA = 1.5


@dataclass(frozen=True)
class Preconditioner:
    """Left preconditioner: an invertible M, applied as M^{-1} A by one LAPACK solve.

    The solve is safe because the constructor checks M's singular values:
    cond_general raises NumericallySingularError when sigma_min <= 1e-14
    sigma_max, so the solve never meets a numerically singular M.
    """

    payload: np.ndarray

    def __post_init__(self) -> None:
        cond_general(self.payload)  # raises NumericallySingularError if singular

    def apply_inverse(self, A: np.ndarray) -> np.ndarray:
        """M^{-1} A for a finite real vector or matrix A with M's row count."""
        n = len(self.payload)
        A = _operand("A", A, lambda s: len(s) in (1, 2) and s[0] == n,
                     f"be a vector or matrix with {n} rows")
        return np.linalg.solve(self.payload, A)

    def preconditioned_cond(self, A: np.ndarray) -> float:
        """Condition number of A after applying this preconditioner."""
        return cond_general(self.apply_inverse(A))


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix with basis vectors as rows.

    Row 0 is 1/sqrt(n); row k entry j is sqrt(2/n) cos(pi (2j+1) k / (2n)).
    To score it as a split preconditioner pass the transpose, so the basis
    vectors become columns (the U^T A U convention).
    """
    _check_count("n", n)
    C = np.empty((n, n))
    j = np.arange(n)
    k = np.arange(1, n)
    C[0, :] = 1.0 / np.sqrt(n)
    C[1:, :] = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k[:, None] / (2 * n))
    return C


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries exp(-2 pi i jk / n) / sqrt(n)."""
    _check_count("n", n)
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * jk / n) / np.sqrt(n)


def dft_split_cond(R: np.ndarray) -> float:
    """Split-preconditioned condition number under the unitary DFT.

    Complex arithmetic stays internal: the Hermitian congruence F^H R F is
    scored by the one split score.  R must be square, finite and symmetric;
    an overflowing congruence raises InvalidInputError, a diagonal that is not
    positive NormalizationDomainError and a spectrum that is not positive
    NotPositiveDefiniteError.
    """
    return _fixed_split_cond(R, dft_matrix)


def _fixed_split_cond(R: np.ndarray, basis) -> float:
    # the score of a fixed unitary basis(n), basis vectors as columns: R is checked once,
    # at R's scale, and the basis, built here for R's n, is not checked as input
    R = _check_symmetric(R, "R")
    F = basis(R.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # _split_cond reports an overflow
        G = F.conj().T @ R @ F
    return float(_split_cond(G))


def _sor_splitting(A: np.ndarray, label: str, omega: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    # (D/omega + L, d) for a checked A with diagonal d free of zeros; omega is checked first
    check_omega(omega)
    A = _check_square(A, "A")
    d = np.diag(A)
    if np.any(d == 0.0):
        bad = int(np.argmin(np.abs(d)))
        raise NumericallySingularError(f"{label}: zero diagonal entry at index {bad}")
    return np.tril(A, -1) + np.diag(d) / omega, d


def jacobi_precond(A: np.ndarray) -> Preconditioner:
    """Diagonal (Jacobi) preconditioner M = diag(A)."""
    return Preconditioner(payload=np.diag(_sor_splitting(A, "jacobi")[1]))


def gauss_seidel_precond(A: np.ndarray) -> Preconditioner:
    """Gauss-Seidel preconditioner M = D + L (diagonal plus strict lower part): SOR at omega = 1."""
    return Preconditioner(payload=_sor_splitting(A, "gauss-seidel")[0])


def check_omega(omega: float) -> None:
    """Reject a relaxation factor outside (0, 2), where SOR and SSOR are defined."""
    _check_real("omega", omega, gt=0, lt=2)


def sor_precond(A: np.ndarray, omega: float = DEFAULT_OMEGA) -> Preconditioner:
    """Successive over-relaxation preconditioner M = D/omega + L."""
    return Preconditioner(payload=_sor_splitting(A, "sor", omega)[0])


def ssor_precond(A: np.ndarray, omega: float = DEFAULT_OMEGA) -> Preconditioner:
    """Symmetric SOR: M = omega/(2-omega) K D^{-1} K^T, K = D/omega + L the SOR splitting."""
    K, d = _sor_splitting(A, "ssor", omega)
    with np.errstate(over="ignore", invalid="ignore"):  # cond_general reports an overflow
        M = (omega / (2.0 - omega)) * K @ np.diag(1.0 / d) @ K.T
    return Preconditioner(payload=M)


def _ilu0_factors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, U) of ILU(0): unit lower L and upper U, restricted to A's nonzero pattern.

    Right-looking (KIJ) form: at pivot k the in-pattern entries of column
    k below the pivot are divided by it, then one rank-1 update, masked to
    the pattern, is applied to the rows below that hold those entries and
    to every column right of k.  Each entry receives the same IEEE
    operations in the same k order as the row-wise IKJ loop (Saad,
    Iterative Methods for Sparse Linear Systems, 2003, Alg. 10.4); masked
    entries only see x - 0.0, which leaves x (and -0.0) unchanged.  So the
    factors are bitwise equal to that loop's and the first zero pivot is
    reported at the same index.
    """
    A = _check_square(A, "A")
    n = A.shape[0]
    pattern = A != 0.0
    LU = A.copy()
    for k in range(n):
        if LU[k, k] == 0.0:
            raise IluBreakdownError(f"zero pivot at index {k}")
        rows = k + 1 + np.flatnonzero(pattern[k + 1:, k])
        LU[rows, k] /= LU[k, k]
        LU[rows, k + 1:] -= np.where(
            pattern[rows, k + 1:], np.multiply.outer(LU[rows, k], LU[k, k + 1:]), 0.0
        )
    return np.tril(LU, -1) + np.eye(n), np.triu(LU)


def ilu0_precond(A: np.ndarray) -> Preconditioner:
    """Incomplete LU with zero fill-in on the sparsity pattern of A: M = L U.

    The factors are restricted to positions where A itself is nonzero.
    For a dense A this reproduces the full LU factorization.
    """
    Lf, Uf = _ilu0_factors(A)
    return Preconditioner(payload=Lf @ Uf)


def none_cond(R: np.ndarray) -> float:
    """Condition number of the power-normalized matrix itself (no transform)."""
    return float(_split_cond(_check_symmetric(R, "R")))


# method name -> cond of R under that baseline; omega is read by sor and ssor only
BASELINES = {
    "dct": lambda R, omega: _fixed_split_cond(R, lambda n: dct_matrix(n).T),
    "dft": lambda R, omega: dft_split_cond(R),
    "jacobi": lambda R, omega: jacobi_precond(R).preconditioned_cond(R),
    "gauss-seidel": lambda R, omega: gauss_seidel_precond(R).preconditioned_cond(R),
    "sor": lambda R, omega: sor_precond(R, omega).preconditioned_cond(R),
    "ssor": lambda R, omega: ssor_precond(R, omega).preconditioned_cond(R),
    "ilu0": lambda R, omega: ilu0_precond(R).preconditioned_cond(R),
    "none": lambda R, omega: none_cond(R),
}
METHOD_NAMES = ("precog", *BASELINES)


def baseline_cond(method: str, R: np.ndarray, omega: float = DEFAULT_OMEGA) -> float:
    """Condition number of R under the named baseline (any METHOD_NAMES but precog)."""
    if method not in BASELINES:
        raise InvalidInputError(f"unknown baseline {method!r}")
    return BASELINES[method](R, omega)


def condition_ratio(cond_method: float, cond_precog: float) -> float:
    """cond_method / cond_precog; values above 1 favor the learned transform."""
    _check_real("cond_method", cond_method, gt=0)
    _check_real("cond_precog", cond_precog, gt=0)
    return float(cond_method / cond_precog)

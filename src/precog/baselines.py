"""Classical preconditioners, the baseline registry and the condition-ratio metric.

Unitary split transforms (DCT, DFT) are scored by the condition number of
the power-normalized congruence U^T A U, left preconditioners by the
general condition number of M^{-1} A.  baseline_cond is the one dispatch
from a method name to its score.
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
)
from .spectral import (
    _check_square, _check_symmetric, _spd_spectrum, _unit_diagonal, cond_general, cond_spd,
    power_normalize, split_preconditioned_cond,
)

DEFAULT_OMEGA = 1.5


@dataclass(frozen=True)
class Preconditioner:
    """Left preconditioner: an invertible M, applied as M^{-1} A.

    Its constructor may declare factors, (L, U) with M = L U or (M, None) for
    a lower-triangular M, which M^{-1} A then solves through; a payload
    without factors gets a dense solve.
    """

    payload: np.ndarray
    factors: tuple[np.ndarray, np.ndarray | None] | None = None

    def __post_init__(self) -> None:
        cond_general(self.payload)  # raises NumericallySingularError if singular

    def apply_inverse(self, A: np.ndarray) -> np.ndarray:
        """M^{-1} A."""
        if self.factors is None:
            return np.linalg.solve(self.payload, A)
        Lf, Uf = self.factors
        X = _triangular_solve(Lf, A, lower=True)
        return X if Uf is None else _triangular_solve(Uf, X, lower=False)

    def preconditioned_cond(self, A: np.ndarray) -> float:
        """Condition number of A after applying this preconditioner."""
        return cond_general(self.apply_inverse(A))


def _triangular_solve(T: np.ndarray, B: np.ndarray, lower: bool) -> np.ndarray:
    # row by row; the first row's empty dot subtracts +0.0, which leaves x (and -0.0) as is
    n = T.shape[0]
    X = np.array(B, dtype=float, copy=True)
    for i in range(n) if lower else range(n - 1, -1, -1):
        done = slice(0, i) if lower else slice(i + 1, n)
        X[i] -= T[i, done] @ X[done]
        X[i] /= T[i, i]
    return X


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
    power-normalized with its real diagonal and the extreme eigenvalue ratio
    is returned.  As in split_preconditioned_cond, R must be square, finite and
    symmetric, a diagonal that is not positive raises NormalizationDomainError
    and a spectrum that is not positive NotPositiveDefiniteError.
    """
    R = _check_symmetric(R, "R")
    F = dft_matrix(R.shape[0])
    Rt = F.conj().T @ R @ F
    ev = _spd_spectrum(_unit_diagonal(Rt, np.real(np.diag(Rt))))
    return float(ev[-1] / ev[0])


def _check_diag(A: np.ndarray, label: str) -> np.ndarray:
    A = _check_square(A, "A")
    d = np.diag(A)
    if np.any(d == 0.0):
        bad = int(np.argmin(np.abs(d)))
        raise NumericallySingularError(f"{label}: zero diagonal entry at index {bad}")
    return A


def jacobi_precond(A: np.ndarray) -> Preconditioner:
    """Diagonal (Jacobi) preconditioner M = diag(A)."""
    A = _check_diag(A, "jacobi")
    M = np.diag(np.diag(A))
    return Preconditioner(payload=M, factors=(M, None))


def gauss_seidel_precond(A: np.ndarray) -> Preconditioner:
    """Gauss-Seidel preconditioner M = D + L (diagonal plus strict lower part)."""
    A = _check_diag(A, "gauss-seidel")
    M = np.tril(A)
    return Preconditioner(payload=M, factors=(M, None))


def check_omega(omega: float) -> None:
    """Reject a relaxation factor outside (0, 2), where SOR and SSOR are defined."""
    _check_real("omega", omega, gt=0, lt=2)


def sor_precond(A: np.ndarray, omega: float = DEFAULT_OMEGA) -> Preconditioner:
    """Successive over-relaxation preconditioner M = D/omega + L."""
    check_omega(omega)
    A = _check_diag(A, "sor")
    M = np.tril(A, -1) + np.diag(np.diag(A)) / omega
    return Preconditioner(payload=M, factors=(M, None))


def ssor_precond(A: np.ndarray, omega: float = DEFAULT_OMEGA) -> Preconditioner:
    """Symmetric SOR: M = omega/(2-omega) (D/omega + L) D^{-1} (D/omega + L^T)."""
    check_omega(omega)
    A = _check_diag(A, "ssor")
    D = np.diag(A)
    K = np.tril(A, -1) + np.diag(D) / omega
    M = (omega / (2.0 - omega)) * K @ np.diag(1.0 / D) @ K.T
    # only a diagonal A gives a lower-triangular (diagonal) M
    return Preconditioner(payload=M, factors=None if np.triu(M, 1).any() else (M, None))


def ilu0_precond(A: np.ndarray) -> Preconditioner:
    """Incomplete LU with zero fill-in on the sparsity pattern of A.

    The factors are restricted to positions where A itself is nonzero.
    For a dense A this reproduces the full LU factorization.

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
    Lf = np.tril(LU, -1) + np.eye(n)
    Uf = np.triu(LU)
    return Preconditioner(payload=Lf @ Uf, factors=(Lf, Uf))


def none_cond(R: np.ndarray) -> float:
    """Condition number of the power-normalized matrix itself (no transform)."""
    return cond_spd(power_normalize(R).S)


# method name -> cond of R under that baseline; omega is read by sor and ssor only
BASELINES = {
    "dct": lambda R, omega: split_preconditioned_cond(R, dct_matrix(R.shape[0]).T),
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

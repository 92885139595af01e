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
)
from .spectral import (
    _spd_spectrum, cond_general, cond_spd, power_normalize, split_preconditioned_cond
)

DEFAULT_OMEGA = 1.5


@dataclass(frozen=True)
class Preconditioner:
    """Left preconditioner: an invertible M, applied as M^{-1} A.

    It may carry (L, U) factors so that applying M^{-1} goes through two
    triangular solves instead of a dense inverse.
    """

    payload: np.ndarray
    factors: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        cond_general(self.payload)  # raises NumericallySingularError if singular

    def apply_inverse(self, A: np.ndarray) -> np.ndarray:
        """M^{-1} A."""
        if self.factors is not None:
            Lf, Uf = self.factors
            return _backward_solve(Uf, _forward_solve(Lf, A))
        if np.array_equal(self.payload, np.tril(self.payload)):
            return _forward_solve(self.payload, A)
        return np.linalg.solve(self.payload, A)

    def preconditioned_cond(self, A: np.ndarray) -> float:
        """Condition number of A after applying this preconditioner."""
        return cond_general(self.apply_inverse(A))


def _forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = L.shape[0]
    X = np.array(B, dtype=float, copy=True)
    for i in range(n):
        if i:
            X[i] -= L[i, :i] @ X[:i]
        X[i] /= L[i, i]
    return X


def _backward_solve(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = U.shape[0]
    X = np.array(B, dtype=float, copy=True)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            X[i] -= U[i, i + 1:] @ X[i + 1:]
        X[i] /= U[i, i]
    return X


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix with basis vectors as rows.

    Row 0 is 1/sqrt(n); row k entry j is sqrt(2/n) cos(pi (2j+1) k / (2n)).
    To score it as a split preconditioner pass the transpose, so the basis
    vectors become columns (the U^T A U convention).
    """
    if n < 1:
        raise InvalidInputError(f"n must be positive, got {n}")
    C = np.empty((n, n))
    j = np.arange(n)
    C[0, :] = 1.0 / np.sqrt(n)
    for k in range(1, n):
        C[k, :] = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    return C


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries exp(-2 pi i jk / n) / sqrt(n)."""
    if n < 1:
        raise InvalidInputError(f"n must be positive, got {n}")
    jk = np.outer(np.arange(n), np.arange(n))
    return np.exp(-2j * np.pi * jk / n) / np.sqrt(n)


def dft_split_cond(R: np.ndarray) -> float:
    """Split-preconditioned condition number under the unitary DFT.

    Complex arithmetic stays internal: the Hermitian congruence F^H R F is
    power-normalized with its real positive diagonal and the extreme
    eigenvalue ratio is returned; a spectrum that is not positive raises
    NotPositiveDefiniteError, as in cond_spd.
    """
    R = np.asarray(R, dtype=float)
    n = R.shape[0]
    F = dft_matrix(n)
    Rt = F.conj().T @ R @ F
    d = np.real(np.diag(Rt))
    if np.any(d <= 0.0):
        raise NumericallySingularError("transformed diagonal is not positive; R not SPD?")
    inv_sqrt = 1.0 / np.sqrt(d)
    ev = _spd_spectrum(Rt * np.outer(inv_sqrt, inv_sqrt))
    return float(ev[-1] / ev[0])


def _check_diag(A: np.ndarray, label: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    d = np.diag(A)
    if np.any(d == 0.0):
        bad = int(np.argmin(np.abs(d)))
        raise NumericallySingularError(f"{label}: zero diagonal entry at index {bad}")
    return A


def jacobi_precond(A: np.ndarray) -> Preconditioner:
    """Diagonal (Jacobi) preconditioner M = diag(A)."""
    A = _check_diag(A, "jacobi")
    return Preconditioner(payload=np.diag(np.diag(A)))


def gauss_seidel_precond(A: np.ndarray) -> Preconditioner:
    """Gauss-Seidel preconditioner M = D + L (diagonal plus strict lower part)."""
    A = _check_diag(A, "gauss-seidel")
    return Preconditioner(payload=np.tril(A))


def check_omega(omega: float) -> None:
    """Reject a relaxation factor outside (0, 2), where SOR and SSOR are defined."""
    if not 0.0 < omega < 2.0:
        raise InvalidInputError(f"omega must be in (0, 2), got {omega}")


def sor_precond(A: np.ndarray, omega: float = DEFAULT_OMEGA) -> Preconditioner:
    """Successive over-relaxation preconditioner M = D/omega + L."""
    check_omega(omega)
    A = _check_diag(A, "sor")
    M = np.tril(A, -1) + np.diag(np.diag(A)) / omega
    return Preconditioner(payload=M)


def ssor_precond(A: np.ndarray, omega: float = DEFAULT_OMEGA) -> Preconditioner:
    """Symmetric SOR: M = omega/(2-omega) (D/omega + L) D^{-1} (D/omega + L^T)."""
    check_omega(omega)
    A = _check_diag(A, "ssor")
    D = np.diag(A)
    K = np.tril(A, -1) + np.diag(D) / omega
    M = (omega / (2.0 - omega)) * K @ np.diag(1.0 / D) @ K.T
    return Preconditioner(payload=M)


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
    A = np.asarray(A, dtype=float)
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
    if cond_method <= 0.0 or cond_precog <= 0.0:
        raise InvalidInputError("condition numbers must be positive")
    return float(cond_method / cond_precog)

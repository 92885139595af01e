"""Deterministic symmetric eigendecomposition and condition-number tools.

The eigenvector convention: eigenvalues ascending, and in each column the
entry of largest absolute value is made positive (first such index on
exact magnitude ties).  canonical_sign alone makes it; it holds for
sym_eig and for every transform the project returns.  The convention makes
repeated decompositions bit-identical and gives finite-difference oracles a
locally continuous eigenvector selection away from degeneracies.  The
private _eig keeps the column signs LAPACK's eigh returns: precog.learn
works on those, as nothing it computes reads a column's sign.

Matrix arguments are checked by _check_square; every split score ends in _split_cond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidInputError,
    NormalizationDomainError,
    NotPositiveDefiniteError,
    NumericallySingularError,
    SymmetryError,
    _real_array,
)

SYMMETRY_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class SpectralPair:
    """Orthonormal eigenvectors (columns of U) and ascending eigenvalues."""

    U: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class NormalizedAutocorr:
    """Unit-diagonal matrix S = delta^{-1/2} R delta^{-1/2}, delta the diagonal of R."""

    S: np.ndarray


def _check_square(M, what: str = "matrix", stack: bool = False) -> np.ndarray:
    # M as a real, finite, nonempty, square float array; with stack, a (..., n, n) stack of them
    M = _real_array(what, M)
    if (M.ndim < 2 if stack else M.ndim != 2) or M.shape[-1] != M.shape[-2]:
        raise InvalidDimensionError(f"{what} must be square, got shape {M.shape}")
    if M.size == 0:
        raise InvalidDimensionError(f"{what} must not be empty, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInputError(f"{what} has non-finite entries")
    return M


def _square_pair(R, U) -> tuple[np.ndarray, np.ndarray]:
    """R and U as finite float arrays, checked to be square and of one shape."""
    R, U = _check_square(R, "R"), _check_square(U, "U")
    if R.shape != U.shape:
        raise InvalidDimensionError(f"shape mismatch: R {R.shape}, U {U.shape}")
    return R, U


def _check_symmetric(M: np.ndarray, what: str = "matrix", stack: bool = False) -> np.ndarray:
    # with stack, M may be a (..., n, n) stack and each matrix is checked on its own
    M = _check_square(M, what, stack)
    # relative to max|M| above 1: a congruence U^T R U is symmetric only to rounding of R
    asym = np.abs(M - M.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (asym > SYMMETRY_TOL * np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))).any():
        raise SymmetryError(f"{what} is not symmetric to {SYMMETRY_TOL:g} times max(1, max|M|)")
    return M


def canonical_sign(U: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    # U.take(k)[j, j] is U[k[j], j] in two calls where U[k, np.arange(n)] takes three
    top = U.take(np.abs(U).argmax(axis=0), axis=0).diagonal()  # first index on ties
    return U * np.where(top < 0, -1.0, 1.0)  # -0.0 and nan give 1.0


def sym_eig(M: np.ndarray) -> SpectralPair:
    """Eigendecomposition of a symmetric matrix under the canonical convention."""
    sp = _eig(_check_symmetric(M))
    return SpectralPair(canonical_sign(sp.U), sp.gamma)


def _eig(M: np.ndarray) -> SpectralPair:
    # eigh's pair with LAPACK's own column signs, for matrices symmetric by construction
    gamma, U = np.linalg.eigh(M)
    return SpectralPair(U=U, gamma=gamma)


def _spd_spectrum(S: np.ndarray) -> np.ndarray:
    # ascending eigenvalues of a checked symmetric (or Hermitian) S, or of each in a stack
    ev = np.linalg.eigvalsh(S)
    if (ev[..., 0] <= 0.0).any():
        raise NotPositiveDefiniteError(f"smallest eigenvalue is {ev[..., 0].min():g}")
    return ev


def cond_spd(M: np.ndarray) -> float:
    """lambda_max / lambda_min of a symmetric positive definite matrix."""
    ev = _spd_spectrum(_check_symmetric(M))
    return float(ev[-1] / ev[0])


def cond_general(M: np.ndarray) -> float:
    """sigma_max / sigma_min of any square matrix via singular values.

    Singular values instead of eigenvalue moduli: left-preconditioned
    products are generally nonnormal.
    """
    s = np.linalg.svd(_check_square(M), compute_uv=False)
    if s[-1] <= 1e-14 * s[0]:
        raise NumericallySingularError(
            f"sigma_min/sigma_max = {s[-1] / s[0] if s[0] else 0.0:g}"
        )
    return float(s[0] / s[-1])


def power_normalize(R: np.ndarray) -> NormalizedAutocorr:
    """Symmetric diagonal scaling to unit diagonal: delta^{-1/2} R delta^{-1/2}."""
    R = _check_symmetric(R)
    return NormalizedAutocorr(S=_unit_diagonal(R, R.diagonal()))


def _unit_diagonal(M: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # M (or a stack) times delta^{-1/2} on both sides; delta is M's real diagonal
    if (delta <= 0.0).any():
        i = np.argmin(delta)  # flat: a stack that fails is rescored one matrix at a time
        raise NormalizationDomainError(f"diagonal entry {i} is {delta.flat[i]:g}, must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow
        inv_sqrt = 1.0 / np.sqrt(delta)
        # the outer product by hand, because np.outer does not take stacks
        S = M * (inv_sqrt[..., :, None] * inv_sqrt[..., None, :])
    if not np.isfinite(S).all():
        raise InvalidInputError("matrix has non-finite entries")
    return S


def _split_cond(G: np.ndarray) -> np.float64 | np.ndarray:
    # the one score: lambda_max / lambda_min of a checked G (or each G of a stack), real or the
    # DFT's Hermitian F^H R F, at unit diagonal, not rechecked: the scaling amplifies G's rounding
    ev = _spd_spectrum(_unit_diagonal(G, np.real(G.diagonal(axis1=-2, axis2=-1))))
    return ev[..., -1] / ev[..., 0]


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as an inf or nan error
def orthonormality_error(U: np.ndarray) -> float:
    """Frobenius norm of U^T U - I for a finite square U."""
    return float(_orthonormality_errors(_check_square(U, "U")[None])[0])


def _orthonormality_errors(Us: np.ndarray) -> np.ndarray:
    # orthonormality_error of each U in a (k, n, m) stack: every slice takes the one
    # BLAS call a lone U takes (syrk for U^T U, dot for e @ e, as np.linalg.norm)
    m = Us.shape[-1]
    E = (Us.transpose(0, 2, 1) @ Us - np.eye(m)).reshape(len(Us), m * m)
    return np.sqrt((E[:, None, :] @ E[:, :, None]).ravel())


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives an inf error, which fails
def _check_orthonormal(U: np.ndarray, what: str = "U") -> np.ndarray:
    U = _check_square(U, what)
    if _orthonormality_errors(U[None])[0] > ORTHONORMALITY_TOL:
        raise InvalidInputError(f"{what} is not orthonormal to 1e-8")
    return U


def split_preconditioned_cond(R: np.ndarray, U: np.ndarray) -> float:
    """Condition number of the power-normalized congruence U^T R U.

    This is the score of an orthonormal U acting as a unitary split
    preconditioner on a symmetric positive definite R.
    """
    R, U = _square_pair(R, U)
    _check_orthonormal(U)
    with np.errstate(over="ignore", invalid="ignore"):  # the G check reports an overflow
        G = U.T @ R @ U
    return float(_split_cond(_check_symmetric(G)))


"""Deterministic symmetric eigendecomposition and condition-number tools.

The eigenvector convention is fixed project-wide: eigenvalues ascending,
and in each column the entry of largest absolute value is made positive
(first such index on exact magnitude ties).  The convention makes repeated
decompositions bit-identical and gives finite-difference oracles a locally
continuous eigenvector selection away from degeneracies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NormalizationDomainError,
    NotPositiveDefiniteError,
    NumericallySingularError,
    SymmetryError,
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
    """Unit-diagonal matrix S = delta^{-1/2} R delta^{-1/2} plus the source diagonal."""

    S: np.ndarray
    delta: np.ndarray


def _check_symmetric(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{what} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInputError(f"{what} has non-finite entries")
    # relative to max|M| above 1: a congruence U^T R U is symmetric only to rounding of R
    asym = np.abs(M - M.T).max(initial=0.0)
    if asym > SYMMETRY_TOL and asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(M))):
        raise SymmetryError(f"{what} is not symmetric to {SYMMETRY_TOL:g} times max(1, max|M|)")
    return M


def canonical_sign(U: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    return U * _column_signs(U)


def _column_signs(U: np.ndarray) -> np.ndarray:
    k = np.abs(U).argmax(axis=0)  # first index on ties
    return np.where(U[k, np.arange(U.shape[1])] < 0, -1.0, 1.0)


def sym_eig(M: np.ndarray) -> SpectralPair:
    """Eigendecomposition of a symmetric matrix under the canonical convention."""
    return _eig(_check_symmetric(M))


def _eig(M: np.ndarray) -> SpectralPair:
    # sym_eig without the input check, for matrices symmetric by construction
    gamma, U = np.linalg.eigh(M)
    U *= _column_signs(U)  # in place: x * -1.0 is bitwise -x
    return SpectralPair(U=U, gamma=gamma)


def cond_spd(M: np.ndarray) -> float:
    """lambda_max / lambda_min of a symmetric positive definite matrix."""
    M = _check_symmetric(M)
    ev = np.linalg.eigvalsh(M)
    if ev[0] <= 0.0:
        raise NotPositiveDefiniteError(f"smallest eigenvalue is {ev[0]:g}")
    return float(ev[-1] / ev[0])


def cond_general(M: np.ndarray) -> float:
    """sigma_max / sigma_min of any square matrix via singular values.

    Singular values instead of eigenvalue moduli: left-preconditioned
    products are generally nonnormal.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("matrix has non-finite entries")
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= 1e-14 * s[0]:
        raise NumericallySingularError(
            f"sigma_min/sigma_max = {s[-1] / s[0] if s[0] else 0.0:g}"
        )
    return float(s[0] / s[-1])


def power_normalize(R: np.ndarray) -> NormalizedAutocorr:
    """Symmetric diagonal scaling to unit diagonal: delta^{-1/2} R delta^{-1/2}."""
    R = _check_symmetric(R)
    delta = R.diagonal().copy()
    if (delta <= 0.0).any():
        bad = int(np.argmin(delta))
        raise NormalizationDomainError(
            f"diagonal entry {bad} is {delta[bad]:g}, must be positive"
        )
    inv_sqrt = 1.0 / np.sqrt(delta)
    S = R * (inv_sqrt[:, None] * inv_sqrt)  # the outer product, without np.outer's ravels
    return NormalizedAutocorr(S=S, delta=delta)


def orthonormality_error(U: np.ndarray) -> float:
    """Frobenius norm of U^T U - I."""
    U = np.asarray(U, dtype=float)
    E = U.T @ U
    E.flat[:: E.shape[0] + 1] -= 1.0  # E - I without building I
    return float(np.linalg.norm(E))


def split_preconditioned_cond(R: np.ndarray, U: np.ndarray) -> float:
    """Condition number of the power-normalized congruence U^T R U.

    This is the score of an orthonormal U acting as a unitary split
    preconditioner on a symmetric positive definite R.
    """
    U = np.asarray(U, dtype=float)
    if orthonormality_error(U) > ORTHONORMALITY_TOL:
        raise InvalidInputError("U is not orthonormal to 1e-8")
    return cond_spd(power_normalize(U.T @ np.asarray(R, dtype=float) @ U).S)

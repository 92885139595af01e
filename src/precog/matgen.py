"""Seeded generators for test matrices and excitation signals.

Every generator is a deterministic function of its arguments and seed.
Matrix files use a plain text format: first line ``n``, then n rows of n
space-separated decimals printed with enough digits to round-trip exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateParametersError,
    InvalidDimensionError,
    InvalidInputError,
)

DEFAULT_SHIFT_MARGIN = 0.05

SPARSITY_PRESETS = (5 / 6, 2 / 3, 1 / 2, 1 / 3, 1 / 5)


def hilbert(n: int, alpha: float = 0.0) -> np.ndarray:
    """Hilbert matrix H(i, j) = 1 / (i + j - 1) (one-based), plus alpha * I."""
    if n < 1:
        raise InvalidDimensionError(f"n must be positive, got {n}")
    if alpha < 0:
        raise InvalidInputError(f"alpha must be nonnegative, got {alpha}")
    i = np.arange(1, n + 1)
    H = 1.0 / (i[:, None] + i[None, :] - 1.0)
    return H + alpha * np.eye(n)


def ar1_autocorr(n: int, rho: float) -> np.ndarray:
    """Unit-diagonal Toeplitz autocorrelation rho^|i-j| of a first-order Markov process."""
    if n < 1:
        raise InvalidDimensionError(f"n must be positive, got {n}")
    if not 0.0 <= rho < 1.0:
        raise InvalidInputError(f"rho must be in [0, 1), got {rho}")
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def ar2_coefficients(rho1: float, rho2: float) -> tuple[float, float]:
    """Mixture coefficients (c1, c2) of the two-pole autocorrelation; c1 + c2 = 1."""
    _check_ar2_params(rho1, rho2)
    denom = (rho1 - rho2) * (1.0 + rho1 * rho2)
    c1 = rho1 * (1.0 - rho2 * rho2) / denom
    c2 = -rho2 * (1.0 - rho1 * rho1) / denom
    return c1, c2


def _toeplitz_pow(n: int, rho: float) -> np.ndarray:
    # rho^|i-j| with integer exponents, valid for signed rho
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return float(rho) ** lags


def ar2_autocorr(n: int, rho1: float, rho2: float) -> np.ndarray:
    """Autocorrelation of a second-order autoregressive process with real poles.

    c1 * R(rho1) + c2 * R(rho2); unit diagonal since c1 + c2 = 1.  The
    result is not guaranteed positive definite for every pole pair at
    finite n, so the smallest eigenvalue is checked and a warning issued
    rather than failing silently.
    """
    if n < 1:
        raise InvalidDimensionError(f"n must be positive, got {n}")
    c1, c2 = ar2_coefficients(rho1, rho2)
    R = c1 * _toeplitz_pow(n, rho1) + c2 * _toeplitz_pow(n, rho2)
    lmin = np.linalg.eigvalsh(R)[0]
    if lmin <= 0.0:
        warnings.warn(
            f"ar2_autocorr(n={n}, rho1={rho1}, rho2={rho2}) is not positive "
            f"definite (lambda_min={lmin:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return R


def _check_ar2_params(rho1: float, rho2: float) -> None:
    if not (abs(rho1) < 1.0 and abs(rho2) < 1.0):
        raise InvalidInputError(f"poles must satisfy |rho| < 1, got {rho1}, {rho2}")
    if rho1 == rho2:
        raise DegenerateParametersError("rho1 == rho2 collapses the mixture")
    if 1.0 + rho1 * rho2 == 0.0:
        raise DegenerateParametersError("1 + rho1*rho2 == 0 collapses the mixture")


def random_pd(n: int, seed: int, reg: float = 0.0) -> np.ndarray:
    """Seeded Gram matrix G^T G / n + reg * I with standard-normal G."""
    if n < 1:
        raise InvalidDimensionError(f"n must be positive, got {n}")
    if reg < 0:
        raise InvalidInputError(f"reg must be nonnegative, got {reg}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return G.T @ G / n + reg * np.eye(n)


def random_sparse_pd(
    n: int,
    density: float,
    seed: int,
    shift_margin: float = DEFAULT_SHIFT_MARGIN,
) -> np.ndarray:
    """Symmetric PD matrix whose off-diagonal density matches the target.

    A symmetric mask selects round(density * n(n-1)/2) vertex pairs, each
    pair gets one standard-normal value mirrored across the diagonal, and
    the diagonal is shifted by |lambda_min| + shift_margin to force
    positive definiteness.  The shift inflates the (otherwise zero)
    diagonal; use density() on the result to read the achieved level.
    """
    if n < 1:
        raise InvalidDimensionError(f"n must be positive, got {n}")
    if not 0.0 < density <= 1.0:
        raise InvalidInputError(f"density must be in (0, 1], got {density}")
    if shift_margin <= 0:
        raise InvalidInputError(f"shift_margin must be positive, got {shift_margin}")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = int(round(density * len(pairs)))
    A = np.zeros((n, n))
    if m > 0:
        chosen = rng.choice(len(pairs), size=m, replace=False)
        values = rng.standard_normal(m)
        for k, p in enumerate(chosen):
            i, j = pairs[p]
            A[i, j] = A[j, i] = values[k]
    lmin = float(np.linalg.eigvalsh(A)[0])
    return A + (abs(lmin) + shift_margin) * np.eye(n)


def density(M: np.ndarray) -> float:
    """Fraction of nonzero entries over all entries."""
    M = np.asarray(M)
    return float(np.count_nonzero(M)) / M.size


def ar1_signal(length: int, rho: float, seed: int) -> np.ndarray:
    """Unit-variance stationary first-order autoregressive sequence.

    x(0) ~ N(0, 1) and x(k) = rho x(k-1) + sqrt(1 - rho^2) nu(k), so the
    process is stationary from the first sample; no burn-in needed.
    """
    if length < 1:
        raise InvalidDimensionError(f"length must be positive, got {length}")
    if not 0.0 <= rho < 1.0:
        raise InvalidInputError(f"rho must be in [0, 1), got {rho}")
    rng = np.random.default_rng(seed)
    # the recursion runs on Python floats: same IEEE operations, no numpy scalars
    x = rng.standard_normal(length).tolist()
    rho = float(rho)
    c = float(np.sqrt(1.0 - rho * rho))
    for k in range(1, length):
        x[k] = rho * x[k - 1] + c * x[k]
    return np.array(x)


def ar2_signal(length: int, rho1: float, rho2: float, seed: int) -> np.ndarray:
    """Unit-variance second-order autoregressive sequence with real poles.

    Recursion x(k) = a1 x(k-1) + a2 x(k-2) + sigma nu(k) with a1 = rho1 + rho2
    and a2 = -rho1 rho2; sigma is set from the stationary-variance formula so
    the output has unit variance.  Ten time constants of the slowest pole
    are generated and discarded as burn-in.
    """
    if length < 1:
        raise InvalidDimensionError(f"length must be positive, got {length}")
    _check_ar2_params(rho1, rho2)
    a1 = rho1 + rho2
    a2 = -rho1 * rho2
    # stationary variance of AR(2): (1 - a2) / ((1 + a2)((1 - a2)^2 - a1^2))
    var = (1.0 - a2) / ((1.0 + a2) * ((1.0 - a2) ** 2 - a1 * a1))
    sigma = np.sqrt(1.0 / var)
    rho_max = max(abs(rho1), abs(rho2))
    burn = int(np.ceil(10.0 / (1.0 - rho_max)))
    rng = np.random.default_rng(seed)
    total = length + burn
    x = (sigma * rng.standard_normal(total)).tolist()
    a1, a2 = float(a1), float(a2)
    x[1] = a1 * x[0] + x[1]
    for k in range(2, total):
        x[k] = a1 * x[k - 1] + a2 * x[k - 2] + x[k]
    return np.array(x[burn:])


@dataclass(frozen=True)
class SignalSpec:
    """Excitation description for system-identification runs."""

    family: str  # white | ar1 | ar2
    rho: float = 0.0
    rho1: float = 0.0
    rho2: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("white", "ar1", "ar2"):
            raise InvalidInputError(f"unknown signal family {self.family!r}")

    def generate(self, length: int, seed: int) -> np.ndarray:
        if self.family == "white":
            return ar1_signal(length, 0.0, seed)
        if self.family == "ar1":
            return ar1_signal(length, self.rho, seed)
        return ar2_signal(length, self.rho1, self.rho2, seed)

    def autocorr(self, n: int) -> np.ndarray:
        """Theoretical n x n autocorrelation matrix of the process."""
        if self.family == "white":
            return np.eye(n)
        if self.family == "ar1":
            return ar1_autocorr(n, self.rho)
        return ar2_autocorr(n, self.rho1, self.rho2)


@dataclass(frozen=True)
class MatrixSpec:
    """CLI-facing description of one generated (or loaded) test matrix."""

    family: str  # hilbert | random-pd | sparse-pd | ar1 | ar2 | file
    n: int = 0
    params: dict = field(default_factory=dict)
    seed: int = 0
    path: str | None = None

    FAMILIES = ("hilbert", "random-pd", "sparse-pd", "ar1", "ar2", "file")

    def __post_init__(self) -> None:
        if self.family not in self.FAMILIES:
            raise InvalidInputError(f"unknown matrix family {self.family!r}")

    def build(self) -> np.ndarray:
        if self.family == "hilbert":
            return hilbert(self.n, self.params.get("alpha", 0.0))
        if self.family == "random-pd":
            return random_pd(self.n, self.seed, self.params.get("reg", 0.0))
        if self.family == "sparse-pd":
            return random_sparse_pd(
                self.n,
                self.params["density"],
                self.seed,
                self.params.get("shift_margin", DEFAULT_SHIFT_MARGIN),
            )
        if self.family == "ar1":
            return ar1_autocorr(self.n, self.params["rho"])
        if self.family == "ar2":
            return ar2_autocorr(self.n, self.params["rho1"], self.params["rho2"])
        if self.path is None:
            raise InvalidInputError("file family needs a path")
        return load_matrix(self.path)

    def label(self) -> str:
        """Deterministic identifier used as matrix_id in reports."""
        if self.family == "file":
            return Path(self.path or "matrix").stem
        parts = [self.family, f"n{self.n}"]
        parts += [f"{k}{v:g}" for k, v in sorted(self.params.items())]
        if self.family in ("random-pd", "sparse-pd"):
            parts.append(f"s{self.seed}")
        return "-".join(parts)


def save_matrix(M: np.ndarray, path: str | Path) -> None:
    """Write a square matrix in the plain text format (exact round-trip)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidDimensionError(f"matrix must be square, got shape {M.shape}")
    lines = [str(M.shape[0])]
    for row in M:
        lines.append(" ".join(f"{x:.17e}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by save_matrix."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise InvalidInputError(f"empty matrix file {path}")
    n = int(text[0])
    if len(text) != n + 1:
        raise InvalidInputError(f"expected {n} rows in {path}, got {len(text) - 1}")
    M = np.array([[float(x) for x in line.split()] for line in text[1:]])
    if M.shape != (n, n):
        raise InvalidInputError(f"matrix in {path} is not {n} x {n}")
    return M

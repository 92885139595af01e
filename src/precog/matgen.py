"""Seeded generators for test matrices and excitation signals.

Every generator is a deterministic function of its arguments and seed.
Matrix files use a plain text format: first line ``n``, then n rows of n
space-separated decimals printed with enough digits to round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateParametersError,
    InvalidInputError,
    _check_count,
    _check_real,
    _check_seed,
)
from .spectral import _check_square

DEFAULT_SHIFT_MARGIN = 0.05


def hilbert(n: int, alpha: float = 0.0) -> np.ndarray:
    """Hilbert matrix H(i, j) = 1 / (i + j - 1) (one-based), plus alpha * I."""
    _check_count("n", n)
    _check_real("alpha", alpha, ge=0)
    i = np.arange(1, n + 1)
    H = 1.0 / (i[:, None] + i[None, :] - 1.0)
    return H + alpha * np.eye(n)


def ar1_autocorr(n: int, rho: float) -> np.ndarray:
    """Unit-diagonal Toeplitz autocorrelation rho^|i-j| of a first-order Markov process."""
    _check_count("n", n)
    _check_real("rho", rho, ge=0, lt=1)
    return _toeplitz_pow(n, rho)


def ar2_coefficients(rho1: float, rho2: float) -> tuple[float, float]:
    """Mixture coefficients (c1, c2) of the two-pole autocorrelation; c1 + c2 = 1."""
    _check_ar2_params(rho1, rho2)
    denom = (rho1 - rho2) * (rho1 * rho2 + 1.0)
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
    result is positive definite in exact arithmetic, but near-unit poles
    can round it indefinite (0.99999, 0.99998 at n=50).  It is not checked
    here: like every generator, this one checks its arguments only, and
    the code that needs positive definiteness checks it.
    """
    _check_count("n", n)
    c1, c2 = ar2_coefficients(rho1, rho2)
    return c1 * _toeplitz_pow(n, rho1) + c2 * _toeplitz_pow(n, rho2)


def _check_ar2_params(rho1: float, rho2: float) -> None:
    # |rho1|, |rho2| < 1 keeps 1 + rho1*rho2 >= 2**-52, so only equal poles are degenerate
    _check_real("rho1", rho1)
    _check_real("rho2", rho2)
    if not (abs(rho1) < 1.0 and abs(rho2) < 1.0):
        raise InvalidInputError(f"poles must satisfy |rho| < 1, got {rho1}, {rho2}")
    if rho1 == rho2:
        raise DegenerateParametersError("rho1 == rho2 collapses the mixture")


def random_pd(n: int, seed: int, reg: float = 0.0) -> np.ndarray:
    """Seeded Gram matrix G^T G / n + reg * I with standard-normal G."""
    _check_count("n", n)
    _check_seed(seed)
    _check_real("reg", reg, ge=0)
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
    _check_count("n", n)
    _check_real("density", density, gt=0, le=1)
    _check_seed(seed)
    _check_real("shift_margin", shift_margin, gt=0)
    rng = np.random.default_rng(seed)
    I, J = np.triu_indices(n, 1)  # the vertex pairs in lexicographic order
    m = int(round(density * I.size))
    A = np.zeros((n, n))
    if m > 0:
        chosen = rng.choice(I.size, size=m, replace=False)
        A[I[chosen], J[chosen]] = A[J[chosen], I[chosen]] = rng.standard_normal(m)
    lmin = float(np.linalg.eigvalsh(A)[0])
    return A + (abs(lmin) + shift_margin) * np.eye(n)


def density(M: np.ndarray) -> float:
    """Fraction of nonzero entries over all entries of a square matrix."""
    M = _check_square(M)
    return float(np.count_nonzero(M)) / M.size


def ar1_signal(length: int, rho: float, seed: int) -> np.ndarray:
    """Unit-variance stationary first-order autoregressive sequence.

    x(0) ~ N(0, 1) and x(k) = rho x(k-1) + sqrt(1 - rho^2) nu(k), so the
    process is stationary from the first sample; no burn-in needed.
    """
    _check_count("length", length)
    _check_real("rho", rho, ge=0, lt=1)
    _check_seed(seed)
    nu = np.random.default_rng(seed).standard_normal(length)
    rho = float(rho)
    # innovations scaled in one multiply, bitwise the per-sample c * nu(k); the recursion
    # runs on Python floats (same IEEE operations, no numpy scalars) with x(k-1) in a local
    x = (float(np.sqrt(1.0 - rho * rho)) * nu).tolist()
    prev = x[0] = float(nu[0])
    for k in range(1, length):
        prev = x[k] = rho * prev + x[k]
    return np.array(x)


def ar2_signal(length: int, rho1: float, rho2: float, seed: int) -> np.ndarray:
    """Unit-variance second-order autoregressive sequence with real poles.

    Recursion x(k) = a1 x(k-1) + a2 x(k-2) + sigma nu(k) with a1 = rho1 + rho2
    and a2 = -rho1 rho2; sigma is set from the stationary-variance formula so
    the output has unit variance.  Ten time constants of the slowest pole
    are generated and discarded as burn-in.
    """
    _check_count("length", length)
    _check_ar2_params(rho1, rho2)
    _check_seed(seed)
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
    prev2, prev = x[0], a1 * x[0] + x[1]
    x[1] = prev
    for k in range(2, total):
        prev2, prev = prev, a1 * prev + a2 * prev2 + x[k]
        x[k] = prev
    return np.array(x[burn:])


@dataclass(frozen=True)
class SignalSpec:
    """Excitation description for system-identification runs."""

    family: str  # white | ar1 | ar2; white is ar1 at rho = 0, as ar1_autocorr(n, 0.0) == eye(n)
    rho: float = 0.0
    rho1: float = 0.0
    rho2: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("white", "ar1", "ar2"):
            raise InvalidInputError(f"unknown signal family {self.family!r}")

    def generate(self, length: int, seed: int) -> np.ndarray:
        if self.family == "ar2":
            return ar2_signal(length, self.rho1, self.rho2, seed)
        return ar1_signal(length, self._ar1_rho, seed)

    def autocorr(self, n: int) -> np.ndarray:
        """Theoretical n x n autocorrelation matrix of the process."""
        if self.family == "ar2":
            return ar2_autocorr(n, self.rho1, self.rho2)
        return ar1_autocorr(n, self._ar1_rho)

    @property
    def _ar1_rho(self) -> float:
        return 0.0 if self.family == "white" else self.rho


# family -> (generator, parameter names, seeded); the names are the MatrixSpec.params keys
# and the generator's keyword arguments, so a missing one takes the generator's default
FAMILIES = {
    "hilbert": (hilbert, ("alpha",), False),
    "random-pd": (random_pd, ("reg",), True),
    "sparse-pd": (random_sparse_pd, ("density", "shift_margin"), True),
    "ar1": (ar1_autocorr, ("rho",), False),
    "ar2": (ar2_autocorr, ("rho1", "rho2"), False),
}


@dataclass(frozen=True)
class MatrixSpec:
    """CLI-facing description of one generated (or loaded) test matrix."""

    family: str  # a key of FAMILIES, or file
    n: int = 0
    params: dict = field(default_factory=dict)
    seed: int = 0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.family != "file" and self.family not in FAMILIES:
            raise InvalidInputError(f"unknown matrix family {self.family!r}")
        names = FAMILIES[self.family][1] if self.family != "file" else ()
        if unknown := [k for k in self.params if k not in names]:
            raise InvalidInputError(f"{self.family} parameters are {names}, got {unknown[0]!r}")

    def build(self) -> np.ndarray:
        if self.family == "file":
            if self.path is None:
                raise InvalidInputError("file family needs a path")
            return load_matrix(self.path)
        make, _, seeded = FAMILIES[self.family]
        return make(self.n, **self.params, **({"seed": self.seed} if seeded else {}))

    def label(self) -> str:
        """Deterministic identifier used as matrix_id in reports."""
        if self.family == "file":
            return Path(self.path or "matrix").stem
        parts = [self.family, f"n{self.n}"]
        parts += [f"{k}{v:g}" for k, v in sorted(self.params.items())]
        _, _, seeded = FAMILIES[self.family]
        if seeded:
            parts.append(f"s{self.seed}")
        return "-".join(parts)


def save_matrix(M: np.ndarray, path: str | Path) -> None:
    """Write a finite square matrix in the plain text format (exact round-trip)."""
    M = _check_square(M)
    lines = [str(M.shape[0])]
    for row in M:
        lines.append(" ".join(f"{x:.17e}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by save_matrix."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise InvalidInputError(f"empty matrix file {path}")
    try:
        n = int(text[0])
        _check_count("n", n)
        rows = [[float(x) for x in line.split()] for line in text[1:]]
    except ValueError as exc:  # a header that is not a positive count, or an entry not a number
        raise InvalidInputError(f"malformed matrix file {path}: {exc}") from None
    if len(rows) != n:
        raise InvalidInputError(f"expected {n} rows in {path}, got {len(rows)}")
    if {len(row) for row in rows} != {n}:  # ragged rows
        raise InvalidInputError(f"matrix in {path} is not {n} x {n}")
    return np.array(rows)

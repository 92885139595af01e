"""Learning a unitary split preconditioner over graph edge weights.

The transform U is parametrized through the weighted graph Laplacian
L(w) = B diag(w) B^T: its eigenvector matrix is the candidate transform,
and gradient descent on the two-sided diagonal-band cost moves the edge
weights.  dU/dw_i comes from first-order eigenvector perturbation theory,
certified against central finite differences: edge (p, q) gets v^T W v
with v = U[p] - U[q], read off S = U W U^T as S[p,p] + S[q,q] - S[p,q] -
S[q,p], one n x n product and a gather instead of a loop over edges.  The
theory needs a simple spectrum; is_degenerate is the one test for that.

cost_E deliberately accepts any square U, orthonormal or not: the ambient
gradient is certified by finite differences over raw matrix entries, which
steps off the orthonormal manifold.  The score, cost_E and dE/dU all read
G = U^T R U; optimize computes it once per iteration and shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DivergenceError,
    InvalidDimensionError,
    InvalidInputError,
)
from .graph import Topology, WeightedGraph, _laplacian, laplacian
from .spectral import (
    SpectralPair,
    _eig,
    cond_spd,
    orthonormality_error,
    power_normalize,
    sym_eig,
)

MAX_CONSECUTIVE_JITTERS = 5
JITTER_SCALE = 1e-6
DEGENERACY_GAP = 1e-8  # smallest eigen-gap the perturbation gradient resolves


def is_degenerate(gamma: np.ndarray) -> bool:
    """True when two ascending eigenvalues lie closer than DEGENERACY_GAP."""
    gamma = np.asarray(gamma)
    return float((gamma[1:] - gamma[:-1]).min(initial=np.inf)) < DEGENERACY_GAP


@dataclass(frozen=True)
class HyperParams:
    """Optimizer settings.

    mu is the gradient step (must sit in (0, 1)); beta both regularizes
    w^T w and enters the update as the (1 - 2 beta) shrink factor; eps1 and
    eps2 set the eigenvalue band [1 - eps2, 1 + eps1], so eps2 < 1 keeps
    the lower edge positive.  gradient_mode names the one gradient route
    and is reported in bench output.
    """

    mu: float = 0.05
    beta: float = 1e-3
    eps1: float = 0.1
    eps2: float = 0.1
    max_iter: int = 300
    tol: float = 1e-10
    seed: int = 0
    gradient_mode: str = "perturbation"
    band_exit: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 1.0:
            raise InvalidInputError(f"mu must be in (0, 1), got {self.mu}")
        if self.beta < 0.0:
            raise InvalidInputError(f"beta must be nonnegative, got {self.beta}")
        if self.eps1 < 0.0:
            raise InvalidInputError(f"eps1 must be nonnegative, got {self.eps1}")
        if not 0.0 <= self.eps2 < 1.0:
            raise InvalidInputError(f"eps2 must be in [0, 1), got {self.eps2}")
        if self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be positive, got {self.max_iter}")
        if self.tol <= 0.0:
            raise InvalidInputError(f"tol must be positive, got {self.tol}")
        if self.seed < 0 or self.seed >= 2**64:
            raise InvalidInputError("seed must fit in 64 unsigned bits")
        if self.gradient_mode != "perturbation":
            raise InvalidInputError(f"unknown gradient mode {self.gradient_mode!r}")
        # nan passes the one-sided tests above; mu and eps2 fail their ranges on nan and inf
        for name in ("beta", "eps1", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    cost: float
    split_cond: float
    grad_norm: float


@dataclass
class PrecogResult:
    """Outcome of one optimization run.

    U is the iterate with the best recorded split-preconditioned condition
    number (the loop is nonconvex and can wander after a good basin);
    w_final is the last weight vector.
    """

    U: np.ndarray
    w_final: np.ndarray
    history: list[IterationRecord] = field(default_factory=list)
    reason: str = ""
    max_unitarity_error: float = 0.0

    @property
    def converged(self) -> bool:
        """True when the run stopped on the band or the tolerance, not the budget."""
        return self.reason in ("band", "tol")

    @property
    def best_cond(self) -> float:
        return min(rec.split_cond for rec in self.history)


def cost_E(R: np.ndarray, U: np.ndarray, eps1: float, eps2: float) -> float:
    """Two-sided band cost ||G - s+ D||_F^2 + ||G - s- D||_F^2.

    G = U^T R U, D its diagonal part, s+ = 1 + eps1, s- = 1 - eps2.
    """
    R = np.asarray(R, dtype=float)
    U = np.asarray(U, dtype=float)
    if R.shape != U.shape or R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise InvalidDimensionError(f"shape mismatch: R {R.shape}, U {U.shape}")
    G = U.T @ R @ U
    return _band_cost(G, np.diag(G.diagonal()), eps1, eps2)


def _band_cost(G: np.ndarray, D: np.ndarray, eps1: float, eps2: float) -> float:
    # D is np.diag(G.diagonal()); d must stay the strided diagonal view: a
    # contiguous copy takes another BLAS dot path and rounds differently
    d = G.diagonal()
    off = G - D
    off2 = float((off * off).sum())
    d2 = float(d @ d)
    return (off2 + eps1 * eps1 * d2) + (off2 + eps2 * eps2 * d2)


def cost_EN(g: WeightedGraph, R: np.ndarray, hp: HyperParams) -> float:
    """cost_E at the Laplacian eigenbasis of g, plus beta (w^T w - 1)."""
    sp = sym_eig(laplacian(g))
    return cost_E(R, sp.U, hp.eps1, hp.eps2) + hp.beta * (float(g.w @ g.w) - 1.0)


def grad_E_wrt_U(
    R: np.ndarray,
    U: np.ndarray,
    eps1: float,
    eps2: float,
    formula: str = "canonical",
) -> np.ndarray:
    """Gradient of cost_E with respect to U: 4 R U (2G - (2 - eps1^2 - eps2^2) D).

    G = U^T R U and D its diagonal part; certified against central finite
    differences of cost_E.  formula accepts only "canonical".
    """
    R = np.asarray(R, dtype=float)
    U = np.asarray(U, dtype=float)
    if R.shape != U.shape or R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise InvalidDimensionError(f"shape mismatch: R {R.shape}, U {U.shape}")
    if formula != "canonical":
        raise InvalidInputError(f"unknown formula {formula!r}")
    G = U.T @ R @ U
    return _grad_E_canonical(4.0 * R, U, G, np.diag(G.diagonal()), _diag_coef(eps1, eps2))


def _diag_coef(eps1: float, eps2: float) -> float:
    return 2.0 - eps1 * eps1 - eps2 * eps2


def _grad_E_canonical(R4, U, G, D, coef: float) -> np.ndarray:
    # R4 = 4 R and coef = _diag_coef(eps1, eps2), both fixed over a run;
    # 4.0 * R @ U @ F parses as ((4.0 * R) @ U) @ F, so passing 4 R is exact
    return R4 @ U @ (2.0 * G - coef * D)


def dL_du(sp: SpectralPair, k: int, l: int) -> np.ndarray:
    """Derivative of U Gamma U^T with respect to the (k, l) entry of U.

    Equals U Gamma J^{kl} + J^{lk} Gamma U^T where J^{kl} has a single one
    at (k, l): column l holds gamma_k u_k, row l its transpose, so at most
    2n - 1 entries are nonzero.
    """
    n = sp.gamma.shape[0]
    if not (0 <= k < n and 0 <= l < n):
        raise IndexError(f"indices ({k}, {l}) out of range for n={n}")
    a = sp.gamma[k] * sp.U[:, k]
    M = np.zeros((n, n))
    M[:, l] += a
    M[l, :] += a
    return M


def _inverse_gaps(gamma: np.ndarray) -> np.ndarray:
    # entry (b, a) = 1 / (gamma_a - gamma_b), zero on the diagonal
    # .flat[::step] is np.fill_diagonal without its argument checks
    step = gamma.shape[0] + 1
    diff = gamma[None, :] - gamma[:, None]
    diff.flat[::step] = 1.0  # keeps 1 / 0 off the diagonal
    inv = 1.0 / diff
    inv.flat[::step] = 0.0
    return inv


def _edge_trace(P: np.ndarray, Q: np.ndarray, sp: SpectralPair, GE: np.ndarray) -> np.ndarray:
    """Per-edge trace term Tr((dE/dU)^T dU/dw_i) of edges (P, Q); GE is dE/dU.

    With W = (U^T GE) * _inverse_gaps, edge (p, q) gets
    S[p,p] + S[q,q] - S[p,q] - S[q,p] for S = U W U^T.  The spectrum must
    be simple (not is_degenerate); callers check it.
    """
    W = (sp.U.T @ GE) * _inverse_gaps(sp.gamma)
    S = sp.U @ W @ sp.U.T
    return S[P, P] + S[Q, Q] - S[P, Q] - S[Q, P]


def grad_EN_wrt_w(g: WeightedGraph, R: np.ndarray, hp: HyperParams) -> np.ndarray:
    """Gradient of cost_EN over the edge weights: trace term plus 2 beta w."""
    sp = sym_eig(laplacian(g))
    if is_degenerate(sp.gamma):
        raise DegenerateSpectrumError(f"minimum eigen-gap below {DEGENERACY_GAP:g}")
    GE = grad_E_wrt_U(R, sp.U, hp.eps1, hp.eps2)
    P, Q = g.topology.endpoints.T
    return _edge_trace(P, Q, sp, GE) + 2.0 * hp.beta * g.w


def optimize(R: np.ndarray, t: Topology, hp: HyperParams) -> PrecogResult:
    """Gradient descent over edge weights toward a well-conditioned transform.

    Per iteration: decompose L(w), score the eigenbasis by its
    split-preconditioned condition number, and update
    w_i <- w_i (1 - 2 beta) - mu Tr((dE/dU)^T dU/dw_i).
    Stops on max_iter, a cost change below tol, or (when band_exit is set)
    all normalized eigenvalues inside [1 - eps2, 1 + eps1].  Near-degenerate
    spectra get a one-time weight jitter; five consecutive jitters abort.

    The result is bitwise equal to the public-function loop in
    tests/test_learn.py.  L is exactly symmetric by construction, so only
    w and L's diagonal are checked (for finiteness), and the degeneracy
    test runs once per iteration.
    """
    R = np.asarray(R, dtype=float)
    cond_spd(R)  # rejects asymmetric or non-positive-definite input
    rng = np.random.default_rng(hp.seed)
    w = rng.standard_normal(t.n_edges)
    P, Q = t.endpoints.T
    R4 = 4.0 * R
    coef = _diag_coef(hp.eps1, hp.eps2)
    shrink = 1.0 - 2.0 * hp.beta
    history: list[IterationRecord] = []
    best_cond = np.inf
    best_U: np.ndarray | None = None
    prev_cost: float | None = None
    consecutive_jitters = 0
    max_unitarity = 0.0
    reason = "max_iter"

    for it in range(hp.max_iter):
        if not np.isfinite(w).all():
            raise InvalidInputError("edge weights must be finite")
        L = _laplacian(t, w)
        if not np.isfinite(L.diagonal()).all():  # a degree sum can overflow
            raise InvalidInputError("matrix has non-finite entries")
        sp = _eig(L)
        if is_degenerate(sp.gamma):
            if consecutive_jitters >= MAX_CONSECUTIVE_JITTERS:
                raise DegenerateSpectrumError(
                    f"spectrum stayed degenerate after {consecutive_jitters} jitters "
                    f"at iteration {it}"
                )
            w = w + JITTER_SCALE * np.linalg.norm(w) * rng.standard_normal(w.shape)
            consecutive_jitters += 1
            continue
        consecutive_jitters = 0

        U = sp.U
        max_unitarity = max(max_unitarity, orthonormality_error(U))
        G = U.T @ R @ U  # shared by the score, the cost and the gradient
        D = np.diag(G.diagonal())  # shared by the cost and the gradient
        s_ev = np.linalg.eigvalsh(power_normalize(G).S)
        split_cond = float(s_ev[-1] / s_ev[0])
        cost = _band_cost(G, D, hp.eps1, hp.eps2) + hp.beta * (float(w @ w) - 1.0)
        grad_core = _edge_trace(P, Q, sp, _grad_E_canonical(R4, U, G, D, coef))
        grad_full = grad_core + 2.0 * hp.beta * w
        if not np.isfinite(cost) or not np.isfinite(grad_core).all():
            raise DivergenceError(f"non-finite cost or gradient at iteration {it}")

        history.append(
            IterationRecord(
                t=it,
                cost=cost,
                split_cond=split_cond,
                grad_norm=float(np.linalg.norm(grad_full)),
            )
        )
        if split_cond < best_cond:
            best_cond = split_cond
            best_U = U.copy()

        if hp.band_exit and s_ev[0] >= 1.0 - hp.eps2 and s_ev[-1] <= 1.0 + hp.eps1:
            reason = "band"
            break
        if prev_cost is not None and abs(cost - prev_cost) < hp.tol:
            reason = "tol"
            break
        prev_cost = cost

        w = w * shrink - hp.mu * grad_core

    if best_U is None:
        raise DegenerateSpectrumError("no non-degenerate iterate was reached")
    return PrecogResult(
        U=best_U,
        w_final=w,
        history=history,
        reason=reason,
        max_unitarity_error=max_unitarity,
    )

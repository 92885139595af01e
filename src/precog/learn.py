"""Learning a unitary split preconditioner over graph edge weights.

The transform U is parametrized through the weighted graph Laplacian
L(w) = B diag(w) B^T: its eigenvector matrix is the candidate transform,
and gradient descent on the two-sided diagonal-band cost moves the edge
weights.  Two routes to dU/dw_i exist and stay separately testable:

* ``perturbation`` (default): first-order eigenvector perturbation theory,
  certified against central finite differences.  Edge (p, q) gets v^T W v
  with v = U[p] - U[q], read off S = U W U^T as S[p,p] + S[q,q] - S[p,q] -
  S[q,p]: one n x n product and a gather, not a loop over edges.
* ``paper-chain``: the pseudoinverse trace chain, kept verbatim for
  comparison studies.  Its disagreement with finite differences is
  measured and reported, never asserted away.

cost_E deliberately accepts any square U, orthonormal or not: the ambient
gradient is certified by finite differences over raw matrix entries, which
steps off the orthonormal manifold.  The score, cost_E and dE/dU all read
G = U^T R U; optimize computes it once per iteration and shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DisconnectedVertexError,
    DivergenceError,
    InvalidDimensionError,
    InvalidInputError,
)
from .graph import Topology, WeightedGraph, degree_vector, laplacian
from .spectral import SpectralPair, cond_spd, orthonormality_error, pinv, power_normalize, sym_eig

GRADIENT_MODES = ("perturbation", "paper-chain")
GRAD_U_FORMULAS = ("canonical", "paper-appendix")

MAX_CONSECUTIVE_JITTERS = 5
JITTER_SCALE = 1e-6


@dataclass(frozen=True)
class HyperParams:
    """Optimizer settings.

    mu is the gradient step (must sit in (0, 1)); beta both regularizes
    w^T w and enters the update as the (1 - 2 beta) shrink factor; eps1 and
    eps2 set the eigenvalue band [1 - eps2, 1 + eps1], so eps2 < 1 keeps
    the lower edge positive.  alpha1/alpha2 only affect cost_sparse.
    """

    mu: float = 0.05
    beta: float = 1e-3
    eps1: float = 0.1
    eps2: float = 0.1
    alpha1: float = 0.0
    alpha2: float = 0.0
    max_iter: int = 300
    tol: float = 1e-10
    seed: int = 0
    gradient_mode: str = "perturbation"
    degeneracy_gap: float = 1e-8
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
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise InvalidInputError("sparsity coefficients must be nonnegative")
        if self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be positive, got {self.max_iter}")
        if self.tol <= 0.0:
            raise InvalidInputError(f"tol must be positive, got {self.tol}")
        if self.seed < 0 or self.seed >= 2**64:
            raise InvalidInputError("seed must fit in 64 unsigned bits")
        if self.gradient_mode not in GRADIENT_MODES:
            raise InvalidInputError(f"unknown gradient mode {self.gradient_mode!r}")
        if self.degeneracy_gap <= 0.0:
            raise InvalidInputError("degeneracy_gap must be positive")


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
    converged: bool = False
    reason: str = ""
    max_unitarity_error: float = 0.0

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
    return _band_cost(U.T @ R @ U, eps1, eps2)


def _band_cost(G: np.ndarray, eps1: float, eps2: float) -> float:
    d = np.diag(G)
    off = G - np.diag(d)
    off2 = float(np.sum(off * off))
    d2 = float(d @ d)
    return (off2 + eps1 * eps1 * d2) + (off2 + eps2 * eps2 * d2)


def cost_EN(g: WeightedGraph, R: np.ndarray, hp: HyperParams) -> float:
    """cost_E at the Laplacian eigenbasis of g, plus beta (w^T w - 1)."""
    sp = sym_eig(laplacian(g))
    return cost_E(R, sp.U, hp.eps1, hp.eps2) + hp.beta * (float(g.w @ g.w) - 1.0)


def cost_sparse(
    g: WeightedGraph, R: np.ndarray, x: np.ndarray, hp: HyperParams
) -> float:
    """cost_EN minus the log-degree reward plus the transformed-signal penalty.

    The degree term uses absolute weights (log needs positive arguments);
    the signal sparsity term is the l1 norm of U^T x standing in for the
    non-differentiable support count, which l0_count reports separately.
    """
    x = np.asarray(x, dtype=float)
    deg = degree_vector(g)
    if np.any(deg == 0.0):
        bad = int(np.argmin(deg))
        raise DisconnectedVertexError(f"vertex {bad} has zero absolute degree")
    sp = sym_eig(laplacian(g))
    base = cost_E(R, sp.U, hp.eps1, hp.eps2) + hp.beta * (float(g.w @ g.w) - 1.0)
    return (
        base
        - hp.alpha1 * float(np.sum(np.log(deg)))
        + hp.alpha2 * float(np.sum(np.abs(sp.U.T @ x)))
    )


def l0_count(v: np.ndarray, tol: float = 1e-8) -> int:
    """Number of entries with magnitude above tol (support-size diagnostic)."""
    return int(np.count_nonzero(np.abs(np.asarray(v)) > tol))


def grad_E_wrt_U(
    R: np.ndarray,
    U: np.ndarray,
    eps1: float,
    eps2: float,
    formula: str = "canonical",
) -> np.ndarray:
    """Gradient of cost_E with respect to U.

    canonical: the exact ambient gradient 4 R U (2G - (2 - eps1^2 - eps2^2) D)
    with G = U^T R U and D its diagonal part; certified against central
    finite differences of cost_E.

    paper-appendix: a published closed form retained verbatim for
    comparison runs, including its internal inconsistencies; it does not
    match finite differences and nothing here claims it does.
    """
    R = np.asarray(R, dtype=float)
    U = np.asarray(U, dtype=float)
    if R.shape != U.shape or R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise InvalidDimensionError(f"shape mismatch: R {R.shape}, U {U.shape}")
    if formula not in GRAD_U_FORMULAS:
        raise InvalidInputError(f"unknown formula {formula!r}")
    G = U.T @ R @ U
    if formula == "canonical":
        return _grad_E_canonical(R, U, G, eps1, eps2)
    n = R.shape[0]
    D = np.diag(np.diag(G))
    bracket = (
        2.0 * R
        - 2.0 * (2.0 - eps2 - eps2) * np.eye(n)
        - ((1.0 + eps1) ** 2 + (1.0 - eps2) ** 2) * D
    )
    return 2.0 * bracket @ R @ U


def _grad_E_canonical(R, U, G, eps1: float, eps2: float) -> np.ndarray:
    D = np.diag(np.diag(G))
    return 4.0 * R @ U @ (2.0 * G - (2.0 - eps1 * eps1 - eps2 * eps2) * D)


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


def du_dw_paper(sp: SpectralPair, theta_i: np.ndarray) -> np.ndarray:
    """Eigenvector sensitivity via the pseudoinverse trace chain.

    Entry (k, l) is Tr(pinv(dL_du(k, l))^T theta_i).  theta_i has at most
    four nonzeros, so each trace reduces to a handful of entries of the
    pseudoinverse; the dense trace is recovered exactly.
    """
    theta_i = np.asarray(theta_i, dtype=float)
    n = sp.gamma.shape[0]
    if theta_i.shape != (n, n):
        raise InvalidDimensionError(f"theta has shape {theta_i.shape}, expected {(n, n)}")
    nz = np.argwhere(theta_i != 0.0)
    out = np.zeros((n, n))
    if nz.size == 0:
        return out
    for k in range(n):
        for l in range(n):
            M = pinv(dL_du(sp, k, l)).T
            out[k, l] = sum(theta_i[a, b] * M[b, a] for a, b in nz)
    return out


def _inverse_gaps(gamma: np.ndarray) -> np.ndarray:
    # entry (b, a) = 1 / (gamma_a - gamma_b), zero on the diagonal
    n = gamma.shape[0]
    diff = gamma[None, :] - gamma[:, None] + np.eye(n)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    return inv


def du_dw_perturbation(
    sp: SpectralPair, theta_i: np.ndarray, degeneracy_gap: float
) -> np.ndarray:
    """First-order eigenvector sensitivity for a simple spectrum.

    Column a of the result is sum over b != a of
    (u_b^T theta u_a) / (gamma_a - gamma_b) u_b.
    """
    theta_i = np.asarray(theta_i, dtype=float)
    n = sp.gamma.shape[0]
    if theta_i.shape != (n, n):
        raise InvalidDimensionError(f"theta has shape {theta_i.shape}, expected {(n, n)}")
    if n > 1 and float(np.min(np.diff(sp.gamma))) < degeneracy_gap:
        raise DegenerateSpectrumError(
            f"minimum eigen-gap {np.min(np.diff(sp.gamma)):g} below {degeneracy_gap:g}"
        )
    C = sp.U.T @ theta_i @ sp.U
    K = C * _inverse_gaps(sp.gamma)
    return sp.U @ K


def _grad_core(
    g: WeightedGraph,
    sp: SpectralPair,
    hp: HyperParams,
    GE: np.ndarray,
) -> np.ndarray:
    """Per-edge trace term Tr((dE/dU)^T dU/dw_i) for the selected mode; GE is dE/dU.

    Perturbation mode: with W = (U^T GE) * _inverse_gaps, edge (p, q) gets
    S[p,p] + S[q,q] - S[p,q] - S[q,p] for S = U W U^T.
    """
    n = sp.gamma.shape[0]
    if hp.gradient_mode == "perturbation":
        if n > 1 and float(np.min(np.diff(sp.gamma))) < hp.degeneracy_gap:
            raise DegenerateSpectrumError(
                f"minimum eigen-gap below {hp.degeneracy_gap:g}"
            )
        W = (sp.U.T @ GE) * _inverse_gaps(sp.gamma)
        S = sp.U @ W @ sp.U.T
        P, Q = g.topology.endpoints.T
        return S[P, P] + S[Q, Q] - S[P, Q] - S[Q, P]
    # paper-chain: one pseudoinverse per (k, l), shared across all edges
    grad = np.zeros(g.topology.n_edges)
    for k in range(n):
        for l in range(n):
            if GE[k, l] == 0.0:
                continue
            M = pinv(dL_du(sp, k, l)).T
            for e, (p, q) in enumerate(g.topology.edges):
                grad[e] += GE[k, l] * (M[p, p] + M[q, q] - M[p, q] - M[q, p])
    return grad


def grad_EN_wrt_w(g: WeightedGraph, R: np.ndarray, hp: HyperParams) -> np.ndarray:
    """Gradient of cost_EN over the edge weights: trace term plus 2 beta w."""
    sp = sym_eig(laplacian(g))
    GE = grad_E_wrt_U(R, sp.U, hp.eps1, hp.eps2, formula="canonical")
    return _grad_core(g, sp, hp, GE) + 2.0 * hp.beta * g.w


def optimize(R: np.ndarray, t: Topology, hp: HyperParams) -> PrecogResult:
    """Gradient descent over edge weights toward a well-conditioned transform.

    Per iteration: decompose L(w), score the eigenbasis by its
    split-preconditioned condition number, and update
    w_i <- w_i (1 - 2 beta) - mu Tr((dE/dU)^T dU/dw_i).
    Stops on max_iter, a cost change below tol, or (when band_exit is set)
    all normalized eigenvalues inside [1 - eps2, 1 + eps1].  Near-degenerate
    spectra get a one-time weight jitter; five consecutive jitters abort.
    """
    R = np.asarray(R, dtype=float)
    cond_spd(R)  # rejects asymmetric or non-positive-definite input
    rng = np.random.default_rng(hp.seed)
    w = rng.standard_normal(t.n_edges)
    history: list[IterationRecord] = []
    best_cond = np.inf
    best_U: np.ndarray | None = None
    prev_cost: float | None = None
    consecutive_jitters = 0
    max_unitarity = 0.0
    converged = False
    reason = "max_iter"

    for it in range(hp.max_iter):
        g = WeightedGraph(t, w)
        sp = sym_eig(laplacian(g))
        if t.n > 1 and float(np.min(np.diff(sp.gamma))) < hp.degeneracy_gap:
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
        s_ev = np.linalg.eigvalsh(power_normalize(G).S)
        split_cond = float(s_ev[-1] / s_ev[0])
        cost = _band_cost(G, hp.eps1, hp.eps2) + hp.beta * (float(w @ w) - 1.0)
        grad_core = _grad_core(g, sp, hp, _grad_E_canonical(R, U, G, hp.eps1, hp.eps2))
        grad_full = grad_core + 2.0 * hp.beta * w
        if not np.isfinite(cost) or not np.all(np.isfinite(grad_core)):
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
            converged = True
            reason = "band"
            break
        if prev_cost is not None and abs(cost - prev_cost) < hp.tol:
            converged = True
            reason = "tol"
            break
        prev_cost = cost

        w = w * (1.0 - 2.0 * hp.beta) - hp.mu * grad_core

    if best_U is None:
        raise DegenerateSpectrumError("no non-degenerate iterate was reached")
    return PrecogResult(
        U=best_U,
        w_final=w,
        history=history,
        converged=converged,
        reason=reason,
        max_unitarity_error=max_unitarity,
    )

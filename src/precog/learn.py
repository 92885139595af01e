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
G = U^T R U, and _band(R, U, eps1, eps2) is the one place that forms it:
it returns G, the band cost and the F of dE/dU = R U F,
F = 8G - 4(2 - eps1^2 - eps2^2) D, D G's diagonal part.  optimize calls it
once per iteration and hands its G to the score.  The public cost and
gradient functions return an overflow as inf or nan, with no numpy warning.

optimize scores off the descent path.  The weight update and the stops
read only the cost and the gradient; split_cond feeds only the history and
the best U, the unitarity error only max_unitarity_error.  So optimize
scores a window of iterates at once, and its docstring shows why every
output stays bitwise unchanged.

optimize, cost_EN and grad_EN_wrt_w work on the column signs eigh returns;
only the U optimize returns gets the canonical sign.  Let U' = U Sigma,
Sigma diagonal +-1.  Then G' = Sigma G Sigma, D' = D, F' = Sigma F Sigma,
R U' F' = (R U F) Sigma and W' = Sigma W Sigma, so the band cost, S and with
it the edge gradient, and ||U'^T U' - I|| keep their bits: each entry of each
product is its old value times one sign that all of its terms share, and
IEEE rounding is odd-symmetric.  The score scales G' to unit diagonal,
which is Sigma times G's scaled matrix times Sigma, and eigvalsh gives that
the same bits; tests/test_spectral.py and tests/test_learn.py pin each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DivergenceError,
    InvalidDimensionError,
    InvalidInputError,
    PrecogError,
    _check_count,
    _check_real,
    _check_seed,
)
from .graph import Topology, WeightedGraph, _laplacian, laplacian
from .spectral import (
    SpectralPair,
    _eig,
    _check_square,
    _check_symmetric,
    _orthonormality_errors,
    _spd_spectrum,
    _split_cond,
    _square_pair,
    canonical_sign,
)

MAX_CONSECUTIVE_JITTERS = 5
JITTER_SCALE = 1e-6
DEGENERACY_GAP = 1e-8  # smallest eigen-gap the perturbation gradient resolves
SCORE_WINDOW_BYTES = 2**18  # optimize holds about this much of G's and U's per score window


def is_degenerate(gamma: np.ndarray) -> bool:
    """True when two ascending eigenvalues lie closer than DEGENERACY_GAP."""
    gamma = np.asarray(gamma)
    return float(np.minimum.reduce(gamma[1:] - gamma[:-1], initial=np.inf)) < DEGENERACY_GAP


@dataclass(frozen=True)
class HyperParams:
    """Optimizer settings.

    mu is the gradient step (must sit in (0, 1)); beta both regularizes
    w^T w and enters the update as the (1 - 2 beta) shrink factor; eps1 and
    eps2 weight the diagonal term of the band cost and act only through
    eps1^2 + eps2^2 (see cost_E), with eps2 checked below 1.  gradient_mode
    names the one gradient route and is reported in bench output.
    """

    mu: float = 0.05
    beta: float = 1e-3
    eps1: float = 0.1
    eps2: float = 0.1
    max_iter: int = 300
    tol: float = 1e-10
    seed: int = 0
    gradient_mode: str = "perturbation"

    def __post_init__(self) -> None:
        _check_count("max_iter", self.max_iter)
        _check_seed(self.seed)
        _check_real("mu", self.mu, gt=0, lt=1)
        _check_real("beta", self.beta, ge=0)
        _check_real("eps1", self.eps1, ge=0)
        _check_real("eps2", self.eps2, ge=0, lt=1)
        _check_real("tol", self.tol, gt=0)
        if self.gradient_mode != "perturbation":
            raise InvalidInputError(f"unknown gradient mode {self.gradient_mode!r}")


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
    number (the loop is nonconvex and can wander after a good basin), under
    the canonical sign of precog.spectral.
    """

    U: np.ndarray
    history: list[IterationRecord]
    reason: str
    max_unitarity_error: float

    @property
    def best_cond(self) -> float:
        return min(rec.split_cond for rec in self.history)


@np.errstate(over="ignore", invalid="ignore")
def cost_E(R: np.ndarray, U: np.ndarray, eps1: float, eps2: float) -> float:
    """Band cost ||G - (1 + eps1) D||_F^2 + ||G - (1 - eps2) D||_F^2.

    G = U^T R U, D its diagonal part.  That is 2 ||G - D||_F^2 + (eps1^2 +
    eps2^2) ||D||_F^2: eps1 and eps2 set no eigenvalue band, and swapping them
    keeps every bit.
    """
    R, U = _square_pair(R, U)
    return _band(R, U, eps1, eps2)[1]


def _band(R, U, eps1: float, eps2: float) -> tuple[np.ndarray, float, np.ndarray]:
    # G = U^T R U; cost_E at G; and F = 8G - 4(2 - eps1^2 - eps2^2) D of dE/dU = R U F, which
    # is 4 R U (2G - (2 - eps1^2 - eps2^2) D) bit for bit, as scaling by 4 is exact.  d stays
    # G's strided diagonal view: a contiguous copy takes another BLAS dot path and rounds
    # differently.  .flat reaches the diagonal in any memory order
    G = U.T @ R @ U
    n = G.shape[0]
    d = G.diagonal()
    off = G.copy()
    off.flat[:: n + 1] = 0.0
    off2 = float((off * off).sum())
    d2 = float(d @ d)
    cost = (off2 + eps1 * eps1 * d2) + (off2 + eps2 * eps2 * d2)
    F = 8.0 * G
    F.flat[:: n + 1] -= 4.0 * (2.0 - eps1 * eps1 - eps2 * eps2) * d
    return G, cost, F


@np.errstate(over="ignore", invalid="ignore")
def cost_EN(g: WeightedGraph, R: np.ndarray, hp: HyperParams) -> float:
    """cost_E at the Laplacian eigenbasis of g, plus beta (w^T w - 1)."""
    sp = _eig(_check_square(laplacian(g)))
    return cost_E(R, sp.U, hp.eps1, hp.eps2) + hp.beta * (float(g.w @ g.w) - 1.0)


@np.errstate(over="ignore", invalid="ignore")
def grad_E_wrt_U(
    R: np.ndarray,
    U: np.ndarray,
    eps1: float,
    eps2: float,
    formula: str = "canonical",
) -> np.ndarray:
    """Gradient of cost_E with respect to U: R U F, F = 8G - 4(2 - eps1^2 - eps2^2) D.

    G = U^T R U and D its diagonal part; _band forms G and returns F.
    Certified against central finite differences of cost_E; formula accepts
    only "canonical".
    """
    R, U = _square_pair(R, U)
    if formula != "canonical":
        raise InvalidInputError(f"unknown formula {formula!r}")
    return R @ U @ _band(R, U, eps1, eps2)[2]


@np.errstate(over="ignore", invalid="ignore")
def dL_du(sp: SpectralPair, k: int, l: int) -> np.ndarray:
    """Derivative of U Gamma U^T with respect to the (k, l) entry of U.

    Equals U Gamma J^{kl} + J^{lk} Gamma U^T where J^{kl} has a single one
    at (k, l): column l holds gamma_k u_k, row l its transpose, so at most
    2n - 1 entries are nonzero.
    """
    n = sp.gamma.shape[0]
    _check_count("k", k, 0, n)
    _check_count("l", l, 0, n)
    a = sp.gamma[k] * sp.U[:, k]
    M = np.zeros((n, n))
    M[:, l] += a
    M[l, :] += a
    return M


def _inverse_gaps(gamma: np.ndarray) -> np.ndarray:
    # entry (b, a) = 1 / (gamma_a - gamma_b), zero on the diagonal, divided in place
    # .ravel()[::step] is np.fill_diagonal without its argument checks; 1 / inf is +0.0
    inv = gamma - gamma[:, None]
    inv.ravel()[:: gamma.shape[0] + 1] = np.inf
    return np.divide(1.0, inv, out=inv)


def _edge_trace(t: Topology, sp: SpectralPair, GE: np.ndarray) -> np.ndarray:
    """Per-edge trace term Tr((dE/dU)^T dU/dw_i) of t's edges; GE is dE/dU.

    With W = (U^T GE) * _inverse_gaps, edge (p, q) gets
    S[p,p] + S[q,q] - S[p,q] - S[q,p] for S = U W U^T, read in one gather
    through t.flat_index.  The spectrum must be simple (not is_degenerate);
    callers check it.
    """
    W = (sp.U.T @ GE) * _inverse_gaps(sp.gamma)
    S = (sp.U @ W @ sp.U.T).take(t.flat_index)
    return S[0] + S[1] - S[2] - S[3]


@np.errstate(over="ignore", invalid="ignore")
def grad_EN_wrt_w(g: WeightedGraph, R: np.ndarray, hp: HyperParams) -> np.ndarray:
    """Gradient of cost_EN over the edge weights: trace term plus 2 beta w."""
    sp = _eig(_check_square(laplacian(g)))
    if is_degenerate(sp.gamma):
        raise DegenerateSpectrumError(f"minimum eigen-gap below {DEGENERACY_GAP:g}")
    GE = grad_E_wrt_U(R, sp.U, hp.eps1, hp.eps2)
    return _edge_trace(g.topology, sp, GE) + 2.0 * hp.beta * g.w


class _ScoreWindow:
    """An optimize run's iterates awaiting their score, and its records so far.

    add() holds an iterate's (G, U, cost, grad_norm); the window is scored
    when size iterates are held and by flush().  Records, the best-U update
    and the largest unitarity error follow iteration order, so they are
    those of scoring each iterate in its own iteration.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.pending: list[tuple[int, np.ndarray, np.ndarray, float, float]] = []
        self.history: list[IterationRecord] = []
        self.best_cond = np.inf
        self.best_U: np.ndarray | None = None
        self.max_unitarity = 0.0

    def add(self, it: int, G, U, cost: float, grad_norm: float) -> None:
        """Hold one iterate; flush() when the window is full."""
        self.pending.append((it, G, U, cost, grad_norm))
        if len(self.pending) == self.size:
            self.flush()

    def flush(self) -> None:
        """Score and record every held iterate."""
        pending, self.pending = self.pending, []
        if not pending:
            return
        # max folds left to right, as one max(m, error) per iteration would
        self.max_unitarity = max(
            self.max_unitarity, *_orthonormality_errors(np.stack([p[2] for p in pending])).tolist()
        )
        Gs = [p[1] for p in pending]
        try:  # one stacked call, bitwise the per-G ones
            conds = _split_cond(_check_symmetric(np.stack(Gs), stack=True)).tolist()
        except (PrecogError, np.linalg.LinAlgError):  # one by one: the earliest failing G raises
            conds = [float(_split_cond(_check_symmetric(G))) for G in Gs]
        for (it, _, U, cost, grad_norm), split_cond in zip(pending, conds):
            self.history.append(
                IterationRecord(t=it, cost=cost, split_cond=split_cond, grad_norm=grad_norm)
            )
            if split_cond < self.best_cond:
                self.best_cond = split_cond
                self.best_U = U


# an overflow shows as non-finite weights, cost or gradient, which raise DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def optimize(R: np.ndarray, t: Topology, hp: HyperParams) -> PrecogResult:
    """Gradient descent over edge weights toward a well-conditioned transform.

    Per iteration: decompose L(w), score the eigenbasis by its
    split-preconditioned condition number, and update
    w_i <- w_i (1 - 2 beta) - mu Tr((dE/dU)^T dU/dw_i).
    Stops on max_iter or a cost change below tol.  Near-degenerate spectra
    get a one-time weight jitter; five consecutive jitters abort.

    Each record is the public score split_preconditioned_cond(R, U) of its
    U and fails where that fails, so best_cond is the score of result.U.
    Iterates are scored in windows of about SCORE_WINDOW_BYTES of G's and
    U's (163 iterates at n=10, 4 at n=64, 1 at n=128) by one stacked call,
    and max_unitarity_error per window by one stacked orthonormality_error.
    Neither the update nor a stop reads them, so the trajectory is the same
    whenever an iterate is scored; the stacked calls are bitwise the
    per-matrix ones, and records, the best U and the unitarity maximum
    follow iteration order, so a returned result is bitwise equal to the
    public-function loop in tests/test_learn.py.  Before an error leaves,
    the held iterates are scored, so the earliest failure raises.

    The loop runs on _eig's pair, with eigh's own column signs, and the
    window holds those U's: no record, stop or update reads a column's sign
    (module docstring).  Only the returned U gets canonical_sign, once per
    call, so result.U is bitwise what the public-function loop, which fixes
    every iterate's signs, returns.

    L is exactly symmetric by construction, and w @ w (which the cost needs
    anyway) is finite only when w and L's diagonal are, so the diagonal is
    checked only when it is not.  The degeneracy test runs once per
    iteration.
    """
    R = _check_symmetric(R, "R")
    _spd_spectrum(R)  # as cond_spd(R): rejects a non-positive-definite R
    if R.shape[0] != t.n:
        raise InvalidDimensionError(f"R is {R.shape[0]} x {R.shape[0]}, topology has n={t.n}")
    rng = np.random.default_rng(hp.seed)
    w = rng.standard_normal(t.n_edges)
    shrink = 1.0 - 2.0 * hp.beta
    scores = _ScoreWindow(max(1, SCORE_WINDOW_BYTES // (16 * t.n * t.n)))
    prev_cost = math.inf
    consecutive_jitters = 0
    reason = "max_iter"

    try:
        for it in range(hp.max_iter):
            ww = float(w @ w)
            L = _laplacian(t, w)
            # every |w_i| is below 1.34e154 when w @ w is finite, so no degree sum overflows;
            # a non-finite weight makes both its endpoints' degrees non-finite
            if not math.isfinite(ww) and not np.isfinite(L.diagonal()).all():
                raise DivergenceError(f"non-finite edge weights or degrees at iteration {it}")
            sp = _eig(L)
            if is_degenerate(sp.gamma):
                if consecutive_jitters >= MAX_CONSECUTIVE_JITTERS:
                    raise DegenerateSpectrumError(
                        f"spectrum stayed degenerate after {consecutive_jitters} jitters "
                        f"at iteration {it}"
                    )
                w = w + JITTER_SCALE * math.sqrt(ww) * rng.standard_normal(w.shape)
                consecutive_jitters += 1
                continue
            consecutive_jitters = 0

            G, cost, F = _band(R, sp.U, hp.eps1, hp.eps2)  # G is shared with the score
            cost += hp.beta * (ww - 1.0)
            grad_core = _edge_trace(t, sp, R @ sp.U @ F)
            grad_full = grad_core + 2.0 * hp.beta * w
            gg = float(grad_full @ grad_full)
            # held before the divergence test: this iterate's score failure outranks it
            scores.add(it, G, sp.U, cost, math.sqrt(gg))
            # a finite gg means a finite grad_full, and so a finite grad_core
            if not math.isfinite(cost) or (
                not math.isfinite(gg) and not np.isfinite(grad_core).all()
            ):
                raise DivergenceError(f"non-finite cost or gradient at iteration {it}")

            if abs(cost - prev_cost) < hp.tol:  # never true at prev_cost = inf
                reason = "tol"
                break
            prev_cost = cost

            w = w * shrink - hp.mu * grad_core
    finally:
        scores.flush()  # a held iterate that fails to score outranks an error raised after it

    if scores.best_U is None:
        raise DegenerateSpectrumError("no non-degenerate iterate was reached")
    return PrecogResult(U=canonical_sign(scores.best_U), history=scores.history, reason=reason,
                        max_unitarity_error=scores.max_unitarity)

import itertools
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_orthonormal, rand_spd
from precog import learn
from precog.errors import (
    DegenerateSpectrumError,
    DivergenceError,
    InvalidDimensionError,
    InvalidInputError,
    NotPositiveDefiniteError,
)
from precog.graph import (
    Topology,
    WeightedGraph,
    banded_topology,
    full_topology,
    laplacian,
    theta,
)
from precog.learn import (
    JITTER_SCALE,
    MAX_CONSECUTIVE_JITTERS,
    HyperParams,
    IterationRecord,
    PrecogResult,
    _edge_trace,
    cost_E,
    cost_EN,
    dL_du,
    grad_E_wrt_U,
    grad_EN_wrt_w,
    is_degenerate,
    optimize,
)
from precog.matgen import ar1_autocorr, hilbert, random_pd
from precog.spectral import (
    SpectralPair,
    canonical_sign,
    cond_spd,
    orthonormality_error,
    power_normalize,
    split_preconditioned_cond,
    sym_eig,
)
from precog.tdlms import FilterConfig

FD_STEP = 1e-6


def fd_grad_U(R, U, e1, e2, h=FD_STEP):
    """Central-difference oracle over every raw entry of U."""
    G = np.zeros_like(U)
    for i in range(U.shape[0]):
        for j in range(U.shape[1]):
            Up = U.copy()
            Up[i, j] += h
            Um = U.copy()
            Um[i, j] -= h
            G[i, j] = (cost_E(R, Up, e1, e2) - cost_E(R, Um, e1, e2)) / (2 * h)
    return G


def fd_grad_w(topo, R, w, hp, h=FD_STEP):
    """Central-difference oracle for cost_EN over the edge weights."""
    out = np.zeros_like(w)
    for e in range(w.shape[0]):
        wp = w.copy()
        wp[e] += h
        wm = w.copy()
        wm[e] -= h
        out[e] = (
            cost_EN(WeightedGraph(topo, wp), R, hp)
            - cost_EN(WeightedGraph(topo, wm), R, hp)
        ) / (2 * h)
    return out


def grad_core_loop(g, R, sp, hp):
    """Oracle: the perturbation trace term as a per-edge v @ W @ v loop."""
    GE = grad_E_wrt_U(R, sp.U, hp.eps1, hp.eps2)
    gaps = sp.gamma[None, :] - sp.gamma[:, None]
    np.fill_diagonal(gaps, np.inf)
    W = (sp.U.T @ GE) / gaps
    grad = np.zeros(g.topology.n_edges)
    for e, (p, q) in enumerate(g.topology.edges):
        v = sp.U[p, :] - sp.U[q, :]
        grad[e] = v @ W @ v
    return grad


def du_dw_perturbation(sp, theta_i, degeneracy_gap):
    """Oracle: first-order eigenvector sensitivity dU/dw for one edge.

    Column a is the sum over b != a of (u_b^T theta u_a) / (gamma_a - gamma_b) u_b;
    the gradient in learn contracts this with dE/dU without forming it.
    """
    if float(np.min(np.diff(sp.gamma), initial=np.inf)) < degeneracy_gap:
        raise DegenerateSpectrumError(f"minimum eigen-gap below {degeneracy_gap:g}")
    gaps = sp.gamma[None, :] - sp.gamma[:, None]
    np.fill_diagonal(gaps, np.inf)
    return sp.U @ ((sp.U.T @ theta_i @ sp.U) / gaps)


def optimize_reference(R, t, hp):
    """Oracle: optimize's loop with the expressions of its helpers written out.

    The band cost, dE/dU, the canonical sign of eigh's columns, the power
    normalization and the edge trace are spelled out here in the same IEEE
    operations as in learn and spectral, so a change that rounds
    differently inside one of those helpers fails the bitwise comparison.
    """
    R = np.asarray(R, dtype=float)
    cond_spd(R)
    rng = np.random.default_rng(hp.seed)
    w = rng.standard_normal(t.n_edges)
    P, Q = t.endpoints.T
    coef = 2.0 - hp.eps1 * hp.eps1 - hp.eps2 * hp.eps2
    history = []
    best_cond = np.inf
    best_U = None
    prev_cost = None
    consecutive_jitters = 0
    max_unitarity = 0.0
    reason = "max_iter"
    for it in range(hp.max_iter):
        gamma, U = np.linalg.eigh(laplacian(WeightedGraph(t, w)))
        if is_degenerate(gamma):
            if consecutive_jitters >= MAX_CONSECUTIVE_JITTERS:
                raise DegenerateSpectrumError(
                    f"spectrum stayed degenerate after {consecutive_jitters} jitters "
                    f"at iteration {it}"
                )
            w = w + JITTER_SCALE * np.linalg.norm(w) * rng.standard_normal(w.shape)
            consecutive_jitters += 1
            continue
        consecutive_jitters = 0
        # each column's largest-magnitude entry positive, the first one on ties
        top = U[np.abs(U).argmax(axis=0), np.arange(t.n)]
        U = U * np.where(top < 0, -1.0, 1.0)
        max_unitarity = max(max_unitarity, orthonormality_error(U))
        G = U.T @ R @ U
        d = G.diagonal()
        D = np.diag(d)
        inv_sqrt = 1.0 / np.sqrt(d)
        s_ev = np.linalg.eigvalsh(G * (inv_sqrt[:, None] * inv_sqrt))
        split_cond = float(s_ev[-1] / s_ev[0])
        off = G - D
        off2 = float((off * off).sum())
        d2 = float(d @ d)
        cost = ((off2 + hp.eps1 * hp.eps1 * d2) + (off2 + hp.eps2 * hp.eps2 * d2)
                + hp.beta * (float(w @ w) - 1.0))
        GE = 4.0 * R @ U @ (2.0 * G - coef * D)
        gaps = gamma[None, :] - gamma[:, None]
        np.fill_diagonal(gaps, 1.0)
        inv_gaps = 1.0 / gaps
        np.fill_diagonal(inv_gaps, 0.0)
        S = U @ ((U.T @ GE) * inv_gaps) @ U.T
        grad_core = S[P, P] + S[Q, Q] - S[P, Q] - S[Q, P]
        grad_full = grad_core + 2.0 * hp.beta * w
        if not np.isfinite(cost) or not np.all(np.isfinite(grad_core)):
            raise DivergenceError(f"non-finite cost or gradient at iteration {it}")
        history.append(IterationRecord(t=it, cost=cost, split_cond=split_cond,
                                       grad_norm=float(np.linalg.norm(grad_full))))
        if split_cond < best_cond:
            best_cond = split_cond
            best_U = U.copy()
        if prev_cost is not None and abs(cost - prev_cost) < hp.tol:
            reason = "tol"
            break
        prev_cost = cost
        w = w * (1.0 - 2.0 * hp.beta) - hp.mu * grad_core
    if best_U is None:
        raise DegenerateSpectrumError("no non-degenerate iterate was reached")
    return PrecogResult(U=best_U, history=history, reason=reason,
                        max_unitarity_error=max_unitarity)


def nondegenerate_weights(topo, rng, gap=1e-6):
    while True:
        w = rng.standard_normal(topo.n_edges)
        gamma = sym_eig(laplacian(WeightedGraph(topo, w))).gamma
        if np.min(np.diff(gamma)) >= gap:
            return w


class TestCostE:
    def test_identity_everything(self):
        assert np.isclose(cost_E(np.eye(4), np.eye(4), 0.2, 0.1), 4 * (0.04 + 0.01))

    def test_diagonal_R(self):
        d = np.array([1.0, 2.0, 3.0])
        expected = (0.04 + 0.01) * float(d @ d)
        assert np.isclose(cost_E(np.diag(d), np.eye(3), 0.2, 0.1), expected)

    def test_offdiagonal_oracle(self):
        # direct elementwise evaluation of the two residual norms
        R = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.isclose(cost_E(R, np.eye(2), 0.0, 0.0), 1.0)

    def test_direct_formula_oracle_random(self, rng):
        for trial in range(10):
            n = 5
            R = rand_spd(n, rng)
            U = rand_orthonormal(n, rng)
            e1, e2 = 0.3, 0.2
            G = U.T @ R @ U
            D = np.diag(np.diag(G))
            expected = (
                np.linalg.norm(G - (1 + e1) * D, "fro") ** 2
                + np.linalg.norm(G - (1 - e2) * D, "fro") ** 2
            )
            assert np.isclose(cost_E(R, U, e1, e2), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            cost_E(np.eye(3), np.eye(4), 0.1, 0.1)

    @pytest.mark.parametrize("a, b", [(0.1, 0.3), (0.0, 0.7), (1.2, 0.9)])
    def test_eps1_and_eps2_act_only_through_their_squares_sum(self, rng, a, b):
        # the cost is 2 ||G - D||^2 + (eps1^2 + eps2^2) ||D||^2, so swapping eps1 and eps2
        # keeps its bits; F's 2 - eps1^2 - eps2^2 rounds in the other order, so dE/dU is close
        for U in (rand_orthonormal(7, rng), rng.standard_normal((7, 7))):
            R = rand_spd(7, rng)
            assert cost_E(R, U, a, b) == cost_E(R, U, b, a)
            np.testing.assert_allclose(grad_E_wrt_U(R, U, b, a), grad_E_wrt_U(R, U, a, b),
                                       rtol=1e-14, atol=0.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_invariant_under_signed_permutations(self, seed):
        # makes cost_EN a well-defined function of w regardless of the
        # eigenvector convention, which legitimizes differencing over w
        rng = np.random.default_rng(seed)
        R = rand_spd(6, rng)
        U = rand_orthonormal(6, rng)
        ref = cost_E(R, U, 0.1, 0.2)
        perm = rng.permutation(6)
        signs = rng.choice([-1.0, 1.0], size=6)
        V = U[:, perm] * signs
        assert abs(cost_E(R, V, 0.1, 0.2) - ref) <= 1e-10 * max(ref, 1.0)


class TestCostEN:
    def test_beta_zero_equals_cost_E(self, rng):
        topo = banded_topology(5, 2)
        w = rng.standard_normal(topo.n_edges)
        g = WeightedGraph(topo, w)
        R = rand_spd(5, rng)
        hp = HyperParams(beta=0.0)
        U = sym_eig(laplacian(g)).U
        assert np.isclose(cost_EN(g, R, hp), cost_E(R, U, hp.eps1, hp.eps2))

    def test_unit_norm_weight_vector_no_penalty(self, rng):
        topo = banded_topology(4, 2)
        w = rng.standard_normal(topo.n_edges)
        w /= np.linalg.norm(w)
        g = WeightedGraph(topo, w)
        R = rand_spd(4, rng)
        a = cost_EN(g, R, HyperParams(beta=0.0))
        b = cost_EN(g, R, HyperParams(beta=123.0))
        assert np.isclose(a, b)

    def test_penalty_contribution(self):
        topo = Topology(3, ((0, 1), (1, 2)))
        g = WeightedGraph(topo, np.array([2.0, 0.0]))
        R = np.eye(3)
        base = cost_EN(g, R, HyperParams(beta=0.0))
        assert np.isclose(cost_EN(g, R, HyperParams(beta=0.5)), base + 0.5 * 3.0)


class TestGradU:
    def test_stationary_at_identity(self):
        G = grad_E_wrt_U(np.eye(4), np.eye(4), 0.0, 0.0)
        assert np.allclose(G, 0.0, atol=1e-14)

    def test_matches_fd_oracle(self, rng):
        for trial in range(5):
            n = 5
            R = rand_spd(n, rng)
            U = rand_orthonormal(n, rng)
            Ga = grad_E_wrt_U(R, U, 0.1, 0.2, formula="canonical")
            Gf = fd_grad_U(R, U, 0.1, 0.2)
            assert np.linalg.norm(Ga - Gf) <= 1e-6 * np.linalg.norm(Gf)

    def test_matches_fd_oracle_with_negative_diag_coef(self, rng):
        # 2 - eps1^2 - eps2^2 = -0.25: the diagonal part of F changes sign
        for trial in range(5):
            R = rand_spd(5, rng)
            U = rand_orthonormal(5, rng)
            Ga = grad_E_wrt_U(R, U, 1.2, 0.9)
            Gf = fd_grad_U(R, U, 1.2, 0.9)
            assert np.linalg.norm(Ga - Gf) <= 1e-6 * np.linalg.norm(Gf)

    def test_unknown_formula(self):
        with pytest.raises(InvalidInputError):
            grad_E_wrt_U(np.eye(2), np.eye(2), 0.1, 0.1, formula="bogus")

    @pytest.mark.parametrize("R", [hilbert(8, 1e-4), random_pd(8, 0, 0.1), ar1_autocorr(8, 0.9)],
                             ids=["hilbert", "random-pd", "ar1"])
    @pytest.mark.parametrize("eps1, eps2", [(0.1, 0.1), (1.2, 0.9)])
    def test_keeps_the_bits_of_the_written_out_formulas(self, R, eps1, eps2):
        # _band's F = 8G - 4 coef D carries dE/dU's factor 4, and scaling by 4 is exact;
        # R may be column-major, and .flat reaches G's diagonal in any memory order
        U = rand_orthonormal(8, np.random.default_rng(3))
        for R in (R, np.asfortranarray(R)):
            G = U.T @ R @ U
            d = G.diagonal()
            D = np.diag(d)
            off = G - D
            off2 = float((off * off).sum())
            d2 = float(d @ d)
            coef = 2.0 - eps1 * eps1 - eps2 * eps2
            want = 4.0 * R @ U @ (2.0 * G - coef * D)
            assert grad_E_wrt_U(R, U, eps1, eps2).tobytes() == want.tobytes()
            want_cost = (off2 + eps1 * eps1 * d2) + (off2 + eps2 * eps2 * d2)
            assert cost_E(R, U, eps1, eps2) == want_cost


class TestDLdU:
    def test_nonzero_budget(self, rng):
        for trial in range(5):
            n = int(rng.integers(3, 8))
            sp = sym_eig(rand_spd(n, rng))
            for k in range(n):
                for l in range(n):
                    assert np.count_nonzero(dL_du(sp, k, l)) <= 2 * n - 1

    def test_zero_spectrum(self):
        sp = sym_eig(np.zeros((4, 4)))
        assert np.array_equal(dL_du(sp, 1, 2), np.zeros((4, 4)))

    def test_identity_basis_single_entry(self):
        sp = sym_eig(np.diag([3.0, 5.0]))
        M = dL_du(sp, 0, 0)
        expected = np.zeros((2, 2))
        expected[0, 0] = 2 * 3.0
        assert np.allclose(M, expected)

    def test_index_range(self, rng):
        sp = sym_eig(rand_spd(3, rng))
        with pytest.raises(IndexError):
            dL_du(sp, 3, 0)


class TestDuDwPerturbation:
    def test_commuting_case_is_zero(self):
        sp = sym_eig(np.diag([1.0, 2.0, 4.0]))
        out = du_dw_perturbation(sp, np.diag([5.0, 6.0, 7.0]), 1e-8)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_matches_fd_of_sym_eig(self, rng):
        h = FD_STEP
        for n in (4, 6):
            topo = banded_topology(n, 2)
            w = nondegenerate_weights(topo, rng, gap=1e-3)
            sp = sym_eig(laplacian(WeightedGraph(topo, w)))
            for e in range(topo.n_edges):
                wp = w.copy()
                wp[e] += h
                wm = w.copy()
                wm[e] -= h
                Up = sym_eig(laplacian(WeightedGraph(topo, wp))).U
                Um = sym_eig(laplacian(WeightedGraph(topo, wm))).U
                fd = (Up - Um) / (2 * h)
                an = du_dw_perturbation(sp, theta(WeightedGraph(topo, w), e), 1e-8)
                assert np.linalg.norm(an - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-12)

    def test_tangent_is_skew(self, rng):
        topo = banded_topology(6, 2)
        g = WeightedGraph(topo, nondegenerate_weights(topo, rng))
        sp = sym_eig(laplacian(g))
        for e in (0, 3):
            dU = du_dw_perturbation(sp, theta(g, e), 1e-8)
            S = sp.U.T @ dU
            assert np.max(np.abs(S + S.T)) <= 1e-8

    def test_degenerate_spectrum_rejected(self):
        sp = sym_eig(np.eye(3))
        with pytest.raises(DegenerateSpectrumError):
            du_dw_perturbation(sp, np.eye(3), 1e-8)


class TestGradW:
    def test_beta_only_at_identity(self, rng):
        topo = banded_topology(5, 2)
        w = nondegenerate_weights(topo, rng)
        g = WeightedGraph(topo, w)
        hp = HyperParams(beta=0.25)
        grad = grad_EN_wrt_w(g, np.eye(5), hp)
        assert np.allclose(grad, 2 * hp.beta * w, atol=1e-10)

    def test_degenerate_spectrum_rejected(self):
        # equal weights on the full graph give L = w (4 I - 1 1^T): eigenvalue 4w three times
        g = WeightedGraph(full_topology(4), np.ones(6))
        with pytest.raises(DegenerateSpectrumError, match="eigen-gap"):
            grad_EN_wrt_w(g, np.eye(4), HyperParams())

    def test_perturbation_matches_fd(self, rng):
        topo = banded_topology(6, 2)
        R = rand_spd(6, rng)
        w = nondegenerate_weights(topo, rng, gap=1e-3)
        hp = HyperParams(eps1=0.1, eps2=0.1, beta=0.3, gradient_mode="perturbation")
        an = grad_EN_wrt_w(WeightedGraph(topo, w), R, hp)
        fd = fd_grad_w(topo, R, w, hp)
        assert np.linalg.norm(an - fd) <= 1e-4 * np.linalg.norm(fd)

    @pytest.mark.parametrize("n", [5, 12, 64])
    @pytest.mark.parametrize("make", [full_topology, lambda n: banded_topology(n, 2)],
                             ids=["full", "banded2"])
    def test_closed_form_matches_edge_loop(self, rng, n, make):
        topo = make(n)
        R = rand_spd(n, rng)
        g = WeightedGraph(topo, nondegenerate_weights(topo, rng))
        sp = sym_eig(laplacian(g))
        hp = HyperParams(eps1=0.2, eps2=0.1)
        fast = _edge_trace(topo, sp, grad_E_wrt_U(R, sp.U, hp.eps1, hp.eps2))
        slow = grad_core_loop(g, R, sp, hp)
        assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)

    def test_modes_share_edge_count(self, rng):
        topo = banded_topology(4, 2)
        R = rand_spd(4, rng)
        w = nondegenerate_weights(topo, rng)
        g = grad_EN_wrt_w(WeightedGraph(topo, w), R, HyperParams(gradient_mode="perturbation"))
        assert g.shape == (topo.n_edges,)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            HyperParams(mu=0.0)
        with pytest.raises(InvalidInputError):
            HyperParams(mu=1.0)
        with pytest.raises(InvalidInputError):
            HyperParams(eps2=1.0)
        with pytest.raises(InvalidInputError):
            HyperParams(beta=-1e-3)
        with pytest.raises(InvalidInputError):
            HyperParams(gradient_mode="newton")
        with pytest.raises(InvalidInputError):
            HyperParams(gradient_mode="paper-chain")
        with pytest.raises(InvalidInputError):
            HyperParams(tol=0.0)
        with pytest.raises(InvalidInputError):
            HyperParams(max_iter=0)

    def test_settable_fields(self):
        assert [f.name for f in fields(HyperParams)] == [
            "mu", "beta", "eps1", "eps2", "max_iter", "tol", "seed", "gradient_mode"]

    @pytest.mark.parametrize("name, value", [
        ("max_iter", 10.0), ("max_iter", "10"), ("max_iter", True), ("seed", 1.5), ("seed", 2.0),
    ])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            HyperParams(**{name: value})

    @pytest.mark.parametrize("name", ["mu", "beta", "eps1", "eps2", "tol"])
    @pytest.mark.parametrize("value", [True, False, "0.5"])
    def test_rejects_non_real_values(self, name, value):
        # beta=True, eps1=True, tol=True and eps2=False passed as 1.0 and 0.0
        with pytest.raises(InvalidInputError, match=f"{name} must be a real number"):
            HyperParams(**{name: value})

    def test_numpy_integer_counts_pass(self):
        hp = HyperParams(max_iter=np.int64(3), seed=np.uint64(2**63))
        res = optimize(ar1_autocorr(4, 0.5), banded_topology(4, 2), hp)
        assert [rec.t for rec in res.history] == [0, 1, 2]

    @pytest.mark.parametrize("name", ["mu", "beta", "eps1", "eps2", "tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            HyperParams(**{name: value})


class TestOptimize:
    def test_result_fields(self):
        # optimize sets every field, so none has a default
        assert [(f.name, f.default, f.default_factory) for f in fields(PrecogResult)] == [
            (name, MISSING, MISSING)
            for name in ("U", "history", "reason", "max_unitarity_error")]

    def test_identity_exits_by_tolerance(self):
        hp = HyperParams(beta=0.0, max_iter=50, seed=3)
        res = optimize(np.eye(6), banded_topology(6, 2), hp)
        assert res.reason == "tol"
        assert np.isclose(res.best_cond, 1.0)
        assert np.isclose(split_preconditioned_cond(np.eye(6), res.U), 1.0)

    def test_markov_matrix_improves(self):
        # conservative step: even mu = 1e-3 must beat the power-normalized
        # baseline on a strongly correlated Markov matrix within 300 steps
        R = ar1_autocorr(10, 0.9)
        baseline = np.linalg.eigvalsh(power_normalize(R).S)
        baseline_cond = baseline[-1] / baseline[0]
        for mu in (1e-3, 0.05):
            hp = HyperParams(
                mu=mu, beta=1e-3, eps1=0.1, eps2=0.1, max_iter=300, seed=7
            )
            res = optimize(R, banded_topology(10, 2), hp)
            assert res.best_cond < baseline_cond
            assert split_preconditioned_cond(R, res.U) == res.best_cond

    def test_best_so_far_is_monotone(self):
        R = hilbert(10, 1e-4)
        hp = HyperParams(max_iter=200, seed=1)
        res = optimize(R, banded_topology(10, 2), hp)
        best = np.minimum.accumulate([rec.split_cond for rec in res.history])
        assert np.all(np.diff(best) <= 0.0)
        assert np.isclose(res.best_cond, best[-1])

    def test_deterministic(self):
        R = ar1_autocorr(8, 0.8)
        hp = HyperParams(max_iter=60, seed=11)
        a = optimize(R, banded_topology(8, 2), hp)
        b = optimize(R, banded_topology(8, 2), hp)
        assert a.U.tobytes() == b.U.tobytes()
        assert [r.cost for r in a.history] == [r.cost for r in b.history]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_divergence_without_warnings(self):
        with pytest.raises(DivergenceError):
            optimize(1e200 * random_pd(6, 0, 0.1), full_topology(6), HyperParams())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_weight_shrink_is_divergence(self):
        # 1 - 2 beta overflows to -inf, so iteration 0's update leaves non-finite weights
        with pytest.raises(DivergenceError, match="at iteration 1$"):
            optimize(ar1_autocorr(4, 0.5), banded_topology(4, 2),
                     HyperParams(beta=1e308, max_iter=10))

    def test_rejects_topology_of_another_size(self):
        with pytest.raises(InvalidDimensionError, match="n=4"):
            optimize(np.eye(5), full_topology(4), HyperParams(max_iter=3))

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            optimize(np.diag([1.0, -1.0]), banded_topology(2, 1), HyperParams())

    def test_unitarity_every_iteration(self):
        R = ar1_autocorr(8, 0.5)
        res = optimize(R, banded_topology(8, 2), HyperParams(max_iter=100, seed=2))
        assert res.max_unitarity_error <= 1e-10

    def test_energy_preservation(self, rng):
        R = ar1_autocorr(8, 0.5)
        res = optimize(R, banded_topology(8, 2), HyperParams(max_iter=50, seed=2))
        for trial in range(10):
            x = rng.standard_normal(8)
            assert abs(np.linalg.norm(res.U.T @ x) - np.linalg.norm(x)) <= 1e-12

    def test_cost_non_increasing_small_step(self):
        hp = HyperParams(mu=1e-4, beta=0.0, max_iter=50, seed=3, tol=1e-30)
        res = optimize(ar1_autocorr(8, 0.5), banded_topology(8, 2), hp)
        costs = [rec.cost for rec in res.history]
        assert len(costs) == 50
        assert all(costs[i + 1] <= costs[i] + 1e-9 for i in range(len(costs) - 1))

    def test_history_bounded_and_finite(self):
        hp = HyperParams(max_iter=40, seed=5)
        res = optimize(ar1_autocorr(6, 0.7), banded_topology(6, 2), hp)
        assert len(res.history) <= hp.max_iter
        assert all(np.isfinite(rec.cost) for rec in res.history)
        assert all(rec.split_cond > 0 for rec in res.history)


def banded2(n):
    return banded_topology(n, 2)


LOOP_CASES = [
    *(pytest.param(ar1_autocorr(n, 0.9), make, HyperParams(max_iter=iters, seed=n),
                   "max_iter", id=f"{name}-n{n}")
      for n, iters in ((5, 120), (12, 120), (64, 25))
      for name, make in (("banded2", banded2), ("full", full_topology))),
    pytest.param(hilbert(10, 1e-4), full_topology, HyperParams(max_iter=80, seed=1),
                 "max_iter", id="hilbert-full-n10"),
    pytest.param(np.eye(6), banded2, HyperParams(beta=0.0, max_iter=50, seed=3),
                 "tol", id="tol-stop"),
    # 2 - eps1^2 - eps2^2 < 0, so F's diagonal coefficient is negative
    pytest.param(ar1_autocorr(6, 0.9), banded2,
                 HyperParams(eps1=1.2, eps2=0.9, max_iter=60, seed=2),
                 "max_iter", id="negative-diag-coef"),
]


@pytest.mark.parametrize("R, make, hp, reason", LOOP_CASES)
def test_optimize_bitwise_equals_public_function_loop(R, make, hp, reason):
    t = make(R.shape[0])
    got = optimize(R, t, hp)
    want = optimize_reference(R, t, hp)
    assert got.reason == want.reason == reason
    assert got.history == want.history
    assert got.U.tobytes() == want.U.tobytes() == canonical_sign(got.U).tobytes()
    assert got.max_unitarity_error == want.max_unitarity_error


@pytest.mark.parametrize("R, make, hp, reason", LOOP_CASES)
def test_first_record_equals_the_public_functions(R, make, hp, reason):
    # optimize's cost, score and gradient norm at w0 are those of the public route, bit for bit
    t = make(R.shape[0])
    first = optimize(R, t, hp).history[0]
    g = WeightedGraph(t, np.random.default_rng(hp.seed).standard_normal(t.n_edges))
    assert first.t == 0
    assert first.cost == cost_EN(g, R, hp)
    assert first.split_cond == split_preconditioned_cond(R, sym_eig(laplacian(g)).U)
    assert first.grad_norm == np.linalg.norm(grad_EN_wrt_w(g, R, hp))


@pytest.mark.parametrize("n", [6, 12, 33])
@pytest.mark.parametrize("make", [banded2, full_topology], ids=["banded2", "full"])
def test_band_and_edge_trace_do_not_see_column_signs(rng, n, make):
    """U and U Sigma (Sigma diagonal +-1) give _band and _edge_trace the same bits.

    G and F come back as Sigma G Sigma and Sigma F Sigma, so neither the
    cost nor the edge gradient depends on the column signs eigh returns.
    """
    t, R = make(n), rand_spd(n, rng)
    raw = learn._eig(laplacian(WeightedGraph(t, nondegenerate_weights(t, rng))))
    s = rng.choice([-1.0, 1.0], size=n)
    out = []
    for sp in (raw, SpectralPair(U=raw.U * s, gamma=raw.gamma)):
        G, cost, F = learn._band(R, sp.U, 0.1, 0.2)
        out.append((G, cost, F, _edge_trace(t, sp, R @ sp.U @ F)))
    (G, cost, F, grad), (G2, cost2, F2, grad2) = out
    assert G2.tobytes() == (G * np.outer(s, s)).tobytes()
    assert F2.tobytes() == (F * np.outer(s, s)).tobytes()
    assert cost2 == cost
    assert grad2.tobytes() == grad.tobytes()


@pytest.mark.parametrize("n", [2, 10, 33])
@pytest.mark.parametrize("make", [banded2, full_topology], ids=["banded2", "full"])
def test_en_cost_and_gradient_are_those_of_the_canonical_pair(rng, n, make):
    # cost_EN and grad_EN_wrt_w decompose L(w) with eigh's own column signs; they keep the
    # bits of the same expressions on sym_eig's canonical pair
    t, R = make(n), rand_spd(n, rng)
    g = WeightedGraph(t, nondegenerate_weights(t, rng))
    hp = HyperParams(beta=0.01, eps1=0.3, eps2=0.2)
    sp = sym_eig(laplacian(g))
    cost = cost_E(R, sp.U, hp.eps1, hp.eps2) + hp.beta * (float(g.w @ g.w) - 1.0)
    grad = _edge_trace(t, sp, grad_E_wrt_U(R, sp.U, hp.eps1, hp.eps2)) + 2.0 * hp.beta * g.w
    assert cost_EN(g, R, hp) == cost
    assert grad_EN_wrt_w(g, R, hp).tobytes() == grad.tobytes()


def band_oracle(R, U, eps1, eps2):
    """_band written out with D = diag(d): the cost from G - D, and F = 8G - kD."""
    G = U.T @ R @ U
    d = G.diagonal()
    D = np.diag(d)
    off = G - D
    off2 = float((off * off).sum())
    d2 = float(d @ d)
    cost = (off2 + eps1 * eps1 * d2) + (off2 + eps2 * eps2 * d2)
    return G, cost, 8.0 * G - 4.0 * (2.0 - eps1 * eps1 - eps2 * eps2) * D


@pytest.mark.parametrize("n", [2, 3, 10, 64, 128])
@pytest.mark.parametrize("kind", ["orthonormal", "raw"])
@pytest.mark.parametrize("eps1, eps2", [(0.1, 0.1), (0.1, 0.2), (0.0, 0.0), (1.0, 0.99)])
def test_band_keeps_the_bits_of_the_diagonal_matrix_expressions(n, kind, eps1, eps2):
    # k = 4 (2 - eps1^2 - eps2^2) >= 0: every entry of G, the cost and F is bitwise the
    # oracle's, in C and in Fortran order of R
    rng = np.random.default_rng(n)
    U = rand_orthonormal(n, rng) if kind == "orthonormal" else rng.standard_normal((n, n))
    R = rand_spd(n, rng)
    for R in (R, np.asfortranarray(R)):
        G, cost, F = learn._band(R, U, eps1, eps2)
        G0, cost0, F0 = band_oracle(R, U, eps1, eps2)
        assert G.tobytes() == G0.tobytes()
        assert cost == cost0
        assert F.tobytes() == F0.tobytes()


@pytest.mark.parametrize("n", [2, 3, 10, 64, 128])
@pytest.mark.parametrize("kind", ["orthonormal", "raw"])
def test_band_with_a_negative_diagonal_coefficient(n, kind):
    # k < 0: 8G - k * 0 turns an off-diagonal -0.0 of 8G into +0.0, which _band leaves as it
    # is, so F is equal, not bitwise; the cost and dE/dU = R U F keep their bits
    rng = np.random.default_rng(n)
    U = rand_orthonormal(n, rng) if kind == "orthonormal" else rng.standard_normal((n, n))
    R = rand_spd(n, rng)
    (_, cost, F), (_, cost0, F0) = learn._band(R, U, 1.2, 0.9), band_oracle(R, U, 1.2, 0.9)
    assert cost == cost0
    assert np.array_equal(F, F0)
    assert (R @ U @ F).tobytes() == (R @ U @ F0).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 128])
def test_inverse_gaps_keep_the_bits_of_the_fill_diagonal_route(rng, n):
    def oracle(gamma):
        inv = gamma - gamma[:, None]
        np.fill_diagonal(inv, 1.0)
        inv = 1.0 / inv
        np.fill_diagonal(inv, 0.0)
        return inv

    # a Laplacian's spectrum starts at 0, as the second does
    for gamma in (np.sort(rng.standard_normal(n)), np.linspace(0.0, 4.0, n) ** 3):
        assert learn._inverse_gaps(gamma).tobytes() == oracle(gamma).tobytes()


def assert_bitwise_equal(got, want):
    assert got.reason == want.reason
    assert got.history == want.history
    assert got.U.tobytes() == want.U.tobytes()
    assert got.max_unitarity_error == want.max_unitarity_error


# iterates per score window; None keeps the size optimize derives from n
WINDOWS = [1, 5, 64, None]


def set_window(monkeypatch, n, k):
    if k is not None:
        monkeypatch.setattr(learn, "SCORE_WINDOW_BYTES", 16 * n * n * k)


IS_DEGENERATE = is_degenerate  # the unpatched test


def degenerate_from_call(calls):
    """is_degenerate that also calls the spectrum degenerate on the given call numbers.

    optimize and optimize_reference test once per iteration, so a call
    number is an iteration number; each run needs a fresh one.
    """
    count = itertools.count()
    return lambda gamma: next(count) in calls or IS_DEGENERATE(gamma)


def run_with_degeneracy(monkeypatch, run, calls, *args):
    fake = degenerate_from_call(calls)
    monkeypatch.setattr(learn, "is_degenerate", fake)
    monkeypatch.setitem(globals(), "is_degenerate", fake)
    return run(*args)


@pytest.mark.parametrize("k", WINDOWS)
def test_tol_stop_inside_a_window_is_bitwise(monkeypatch, k):
    # stops at iteration 262: 3 iterates into a 5-window, 7 into a 64-window
    R, t = random_pd(6, 0, 0.1), full_topology(6)
    hp = HyperParams(max_iter=300, tol=1e-4, seed=1)
    set_window(monkeypatch, t.n, k)
    got = optimize(R, t, hp)
    assert got.reason == "tol" and len(got.history) == 263
    assert_bitwise_equal(got, optimize_reference(R, t, hp))


@pytest.mark.parametrize("k", WINDOWS)
@pytest.mark.parametrize("planted_at", [0, 7, 41])
def test_planted_unitarity_error_is_reported_from_its_window(monkeypatch, k, planted_at):
    """max_unitarity_error is the left-to-right max of every iterate's own error.

    The iterate at planted_at gets a U whose first column is off unit norm by
    about 1e-6; 42 iterations put iteration 41 in a partly filled last window
    when 5 iterates make one.
    """
    R, t = hilbert(10, 1e-4), full_topology(10)
    hp = HyperParams(max_iter=42, seed=1)
    set_window(monkeypatch, t.n, k)
    real_eig, Us = learn._eig, []

    def planted_eig(L):
        sp = real_eig(L)
        if len(Us) == planted_at:
            sp.U[:, 0] *= 1.0 + 1e-6
        Us.append(sp.U.copy())
        return sp

    monkeypatch.setattr(learn, "_eig", planted_eig)
    res = optimize(R, t, hp)
    assert len(res.history) == len(Us) == 42  # no jitter: every U was held and scored
    errors = [orthonormality_error(U) for U in Us]
    want = 0.0
    for error in errors:
        want = max(want, error)
    assert res.max_unitarity_error == want == errors[planted_at] > 1e-7


@pytest.mark.parametrize("k", WINDOWS)
def test_jitters_inside_a_window_are_bitwise(monkeypatch, k):
    R, t = hilbert(10, 1e-4), full_topology(10)
    hp = HyperParams(max_iter=40, seed=1)
    set_window(monkeypatch, t.n, k)
    jitters = {3, 7, 8, 9, 31}
    got, want = [run_with_degeneracy(monkeypatch, run, jitters, R, t, hp)
                 for run in (optimize, optimize_reference)]
    assert [rec.t for rec in got.history] == [i for i in range(40) if i not in jitters]
    assert_bitwise_equal(got, want)


def raised(run, *args) -> Exception:
    with pytest.raises(Exception) as info:
        run(*args)
    return info.value


# beta = 1000 shrinks w by -1999 per step: w @ w and so the cost overflow at iteration 47
DIVERGING = (ar1_autocorr(6, 0.9), banded_topology(6, 2), HyperParams(max_iter=300, beta=1e3))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # optimize_reference overflows
@pytest.mark.parametrize("k", WINDOWS)
def test_divergence_after_a_partly_filled_window(monkeypatch, k):
    set_window(monkeypatch, 6, k)
    errors = [raised(run, *DIVERGING) for run in (optimize, optimize_reference)]
    assert all(type(e) is DivergenceError for e in errors)
    assert [str(e) for e in errors] == ["non-finite cost or gradient at iteration 47"] * 2


def sign_free_bytes(S: np.ndarray) -> bytes:
    """Bytes of |S|: the same for S and for every Sigma S Sigma, Sigma diagonal +-1.

    optimize scores the eigenvectors eigh returns and the reference loop their
    canonical signs, so the two hand eigvalsh such a pair of matrices.
    """
    return np.abs(S).tobytes()


def normalized_matrix_at(iteration, monkeypatch, run, *args) -> bytes:
    """sign_free_bytes of the matrix the score passes to eigvalsh at a (non-jitter) iteration."""
    seen, real = [], np.linalg.eigvalsh
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda a: seen.append(sign_free_bytes(a)) or real(a))
        try:
            run(*args)
        except DivergenceError:
            pass
    return seen[1 + iteration]  # call 0 is cond_spd(R)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # optimize_reference overflows
@pytest.mark.parametrize("k", WINDOWS)
@pytest.mark.parametrize("fail_at, later", [
    (40, "divergence"), (47, "divergence"), (10, "jitters"),
])
def test_score_failure_outranks_a_later_error(monkeypatch, k, fail_at, later):
    """A score that fails at fail_at raises, not the error a later iteration raises."""
    if later == "divergence":
        args, jitters = DIVERGING, set()
    else:  # five jitters from fail_at + 2 on raise DegenerateSpectrumError at fail_at + 7
        args = (ar1_autocorr(6, 0.9), banded_topology(6, 2), HyperParams(max_iter=60))
        jitters = set(range(fail_at + 2, 60))
    poison = normalized_matrix_at(fail_at, monkeypatch, optimize_reference, *args)
    real = np.linalg.eigvalsh

    def failing_eigvalsh(a):
        if any(sign_free_bytes(m) == poison for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError(f"injected at iteration {fail_at}")
        return real(a)

    set_window(monkeypatch, 6, k)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    errors = [raised(run_with_degeneracy, monkeypatch, run, jitters, *args)
              for run in (optimize, optimize_reference)]
    assert all(type(e) is np.linalg.LinAlgError for e in errors)
    assert [str(e) for e in errors] == [f"injected at iteration {fail_at}"] * 2


def first_nonpositive_spectrum(monkeypatch, R, t, hp) -> tuple[int, float]:
    """Iteration and smallest eigenvalue of the reference loop's first non-positive score."""
    spectra, real = [], np.linalg.eigvalsh
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(real(a)) or spectra[-1])
        ref = optimize_reference(R, t, hp)
    # call 0 is cond_spd(R), then one call per recorded iterate
    i = next(i for i, ev in enumerate(spectra[1:]) if ev[0] <= 0.0)
    return ref.history[i].t, spectra[1 + i][0]


# hilbert(13) passes cond_spd, but 41 of these 100 iterates' normalized spectra are not positive
NOT_POSITIVE = (hilbert(13), full_topology(13), HyperParams(max_iter=100))


@pytest.mark.parametrize("k", WINDOWS)
def test_nonpositive_score_raises_at_its_iterate(monkeypatch, k):
    R, t, hp = NOT_POSITIVE
    it, low = first_nonpositive_spectrum(monkeypatch, R, t, hp)
    set_window(monkeypatch, t.n, k)
    with pytest.raises(NotPositiveDefiniteError) as info:
        optimize(R, t, hp)
    assert str(info.value) == f"smallest eigenvalue is {low:g}"
    # every iterate before it scores, as in the reference loop
    before = replace(hp, max_iter=it)
    assert_bitwise_equal(optimize(R, t, before), optimize_reference(R, t, before))


class TestJitter:
    # two isolated vertices: the Laplacian's zero eigenvalue is always repeated
    TOPOLOGY = Topology(4, ((0, 1),))

    def test_gives_up_after_consecutive_jitters(self):
        with pytest.raises(DegenerateSpectrumError, match="after 5 jitters at iteration 5"):
            optimize(np.eye(4), self.TOPOLOGY, HyperParams(max_iter=50))

    def test_no_nondegenerate_iterate(self):
        with pytest.raises(DegenerateSpectrumError,
                           match="no non-degenerate iterate was reached"):
            optimize(np.eye(4), self.TOPOLOGY, HyperParams(max_iter=3))


HUGE_R = 1e200 * np.eye(2) + 1e199
HUGE_U = 1e200 * np.eye(2)
ONE_EDGE = banded_topology(2, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, want", [
    (lambda: cost_E(HUGE_R, np.eye(2), 0.1, 0.1), np.inf),
    (lambda: grad_E_wrt_U(HUGE_R, np.eye(2), 0.1, 0.1), np.full((2, 2), np.inf)),
    (lambda: cost_EN(WeightedGraph(ONE_EDGE, [1.0]), HUGE_R, HyperParams()), np.inf),
    (lambda: grad_EN_wrt_w(WeightedGraph(ONE_EDGE, [1.0]), HUGE_R, HyperParams()), [np.nan]),
    (lambda: cost_EN(WeightedGraph(ONE_EDGE, [1e200]), np.eye(2), HyperParams()), np.inf),
    (lambda: orthonormality_error(HUGE_U), np.inf),
    (lambda: split_preconditioned_cond(np.eye(2), HUGE_U), "U is not orthonormal to 1e-8"),
    (lambda: FilterConfig(2, 0.1, HUGE_U), "transform is not orthonormal to 1e-8"),
    (lambda: dL_du(SpectralPair(np.diag([2.0, 1.0]), np.array([1e308, 1.5e308])), 0, 0),
     [[np.inf, 0.0], [0.0, 0.0]]),
], ids=["cost_E", "grad_E_wrt_U", "cost_EN", "grad_EN_wrt_w", "cost_EN-huge-w",
        "orthonormality_error", "split_preconditioned_cond", "FilterConfig", "dL_du"])
def test_public_overflow_is_a_value_or_an_error_without_a_warning(call, want):
    # the overflow comes back as inf or nan, or as the one-line error, never as a warning
    if isinstance(want, str):
        with pytest.raises(InvalidInputError, match=want):
            call()
    else:
        np.testing.assert_array_equal(call(), want)


@pytest.mark.parametrize("fn", [cost_EN, grad_EN_wrt_w])
def test_en_functions_reject_an_overflowing_degree(fn):
    # finite weights whose sum at vertex 1 overflows: L(w) is checked before eigh sees it
    g = WeightedGraph(banded_topology(3, 1), [1e308, 1e308])
    with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
        fn(g, np.eye(3), HyperParams())

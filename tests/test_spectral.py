import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_orthonormal, rand_spd
from precog.errors import (
    InvalidDimensionError,
    InvalidInputError,
    NormalizationDomainError,
    NotPositiveDefiniteError,
    NumericallySingularError,
    SymmetryError,
)
from precog.baselines import dct_matrix, none_cond
from precog.graph import banded_topology
from precog.learn import HyperParams, is_degenerate, optimize
from precog.matgen import ar1_autocorr
from precog.spectral import (
    SYMMETRY_TOL,
    _column_signs,
    _eig,
    _orthonormality_errors,
    _split_cond,
    _split_conds,
    canonical_sign,
    cond_general,
    cond_spd,
    orthonormality_error,
    power_normalize,
    split_preconditioned_cond,
    sym_eig,
)


def charpoly_roots(M):
    """Independent eigenvalue oracle: Faddeev-LeVerrier coefficients + np.roots."""
    n = M.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    Mk = np.eye(n)
    for k in range(1, n + 1):
        Mk = M @ Mk
        coeffs[k] = -np.trace(Mk) / k
        Mk = Mk + coeffs[k] * np.eye(n)
    return np.sort(np.roots(coeffs).real)


def canonical_sign_loop(U):
    """Oracle: the per-column sign fixup."""
    U = U.copy()
    for c in range(U.shape[1]):
        k = int(np.argmax(np.abs(U[:, c])))
        if U[k, c] < 0:
            U[:, c] = -U[:, c]
    return U


class TestCanonicalSign:
    def test_tie_flips_on_first_index(self):
        a = 0.6
        U = np.array([[-a, a, 0.8], [a, a, 0.0], [0.0, 0.0, -0.6]])
        V = canonical_sign(U)
        assert np.array_equal(V[:, 0], [a, -a, 0.0])  # [-a, a]: first index wins, flipped
        assert np.array_equal(V[:, 1], U[:, 1])
        assert np.array_equal(V[:, 2], U[:, 2])

    def test_returns_copy(self):
        U = -np.eye(3)
        canonical_sign(U)
        assert np.array_equal(U, -np.eye(3))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 40))
    @settings(max_examples=50)
    def test_bitwise_equal_to_column_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        # small integers make exact magnitude ties and zero columns common
        U = rng.integers(-2, 3, size=(n, n)).astype(float) * rng.choice([1.0, 0.3], size=n)
        assert canonical_sign(U).tobytes() == canonical_sign_loop(U).tobytes()

    def test_signs_are_the_where_form_bitwise_at_negative_zero_and_nan(self, rng):
        U = rng.standard_normal((6, 5))
        U[:, 1] = 0.0
        U[0, 1] = -0.0  # an all-zero column: argmax picks row 0, so its top is -0.0
        U[3, 2] = np.nan  # argmax of abs stops at the first nan, so the top is nan
        U[:, 3] = [0.5, -0.5, 0.1, 0.0, 0.2, 0.3]  # a tie: the first index, +0.5, wins
        U[:, 4] = [-0.5, 0.5, 0.1, 0.0, 0.2, 0.3]  # a tie won by -0.5
        top = U[np.abs(U).argmax(axis=0), np.arange(5)]
        assert np.signbit(top[1]) and top[1] == 0.0 and np.isnan(top[2])
        want = np.where(top < 0, -1.0, 1.0)
        assert _column_signs(U).tobytes() == want.tobytes()
        assert list(want[1:]) == [1.0, 1.0, 1.0, -1.0]


class TestSymEig:
    def test_identity(self):
        sp = sym_eig(np.eye(3))
        assert np.allclose(sp.gamma, [1, 1, 1])
        assert np.allclose(sp.U, np.eye(3))

    def test_diagonal(self):
        sp = sym_eig(np.diag([2.0, 5.0]))
        assert np.allclose(sp.gamma, [2.0, 5.0])
        assert np.allclose(sp.U, np.eye(2))

    def test_2x2_closed_form(self):
        sp = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sp.gamma, [-1.0, 1.0])
        s = 1.0 / np.sqrt(2.0)
        # canonical sign: on a magnitude tie the first index is made positive
        assert np.allclose(sp.U[:, 0], [s, -s])
        assert np.allclose(sp.U[:, 1], [s, s])

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SymmetryError):  # the tolerance scales, but not this far
            sym_eig(np.array([[0.0, 1e6], [0.0, 0.0]]))

    def test_large_entries_pass_the_symmetry_check(self):
        # U^T R U is symmetric only to rounding of order 1e-16 max|R|, which exceeds
        # an absolute 1e-10 once the entries are large
        R = ar1_autocorr(16, 0.9)
        big = R * 1e6
        optimize(big, banded_topology(16, 2), HyperParams(max_iter=20, seed=0))
        U = dct_matrix(16).T
        assert np.isclose(split_preconditioned_cond(big, U), split_preconditioned_cond(R, U),
                          rtol=1e-12, atol=0)
        assert np.isclose(none_cond(big), none_cond(R), rtol=1e-12, atol=0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_deterministic_bits(self, rng):
        M = rand_spd(6, rng)
        a = sym_eig(M)
        b = sym_eig(M)
        assert a.U.tobytes() == b.U.tobytes()
        assert a.gamma.tobytes() == b.gamma.tobytes()

    def test_invariants_random(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            M = (A + A.T) / 2.0
            sp = sym_eig(M)
            assert orthonormality_error(sp.U) <= 1e-10
            assert np.all(np.diff(sp.gamma) >= 0.0)
            recon = sp.U @ np.diag(sp.gamma) @ sp.U.T
            assert np.linalg.norm(recon - M) <= 1e-8 * max(np.linalg.norm(M), 1.0)
            for c in range(n):
                k = np.argmax(np.abs(sp.U[:, c]))
                assert sp.U[k, c] > 0.0

    def test_eigenvalues_match_charpoly_oracle(self, rng):
        for trial in range(40):
            n = int(rng.integers(2, 5))
            A = rng.standard_normal((n, n))
            M = (A + A.T) / 2.0
            expected = charpoly_roots(M)
            assert np.allclose(sym_eig(M).gamma, expected, atol=1e-6)

    def test_degenerate_flag(self):
        # the one degeneracy notion is learn.is_degenerate on the ascending gamma
        assert is_degenerate(sym_eig(np.eye(3)).gamma)
        assert not is_degenerate(sym_eig(np.diag([1.0, 2.0, 4.0])).gamma)
        assert not is_degenerate(sym_eig(np.eye(1)).gamma)


class TestCondSpd:
    def test_identity(self):
        assert cond_spd(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert np.isclose(cond_spd(np.diag([1.0, 100.0])), 100.0)

    def test_not_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            cond_spd(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            cond_spd(np.diag([1.0, 0.0]))

    def test_ar1_power_normalized_near_asymptote(self):
        S = power_normalize(ar1_autocorr(64, 0.9)).S
        target = (1.9 / 0.1) ** 2
        assert 0.7 * target <= cond_spd(S) <= 1.3 * target


class TestCondGeneral:
    def test_orthonormal_is_one(self, rng):
        Q = rand_orthonormal(5, rng)
        assert abs(cond_general(Q) - 1.0) <= 1e-10

    def test_diagonal(self):
        assert np.isclose(cond_general(np.diag([2.0, 1.0])), 2.0)

    def test_shear_closed_form(self):
        # singular values of [[1,1],[0,1]] satisfy s^2 = (3 +- sqrt 5)/2
        expected = (3.0 + np.sqrt(5.0)) / 2.0
        assert np.isclose(cond_general(np.array([[1.0, 1.0], [0.0, 1.0]])), expected)

    def test_singular(self):
        with pytest.raises(NumericallySingularError):
            cond_general(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestPowerNormalize:
    def test_diagonal_becomes_identity(self):
        out = power_normalize(np.diag([4.0, 9.0, 0.25]))
        assert np.allclose(out.S, np.eye(3), atol=1e-15)

    def test_unit_diagonal_unchanged(self):
        R = ar1_autocorr(8, 0.6)
        assert np.allclose(power_normalize(R).S, R, atol=1e-15)

    def test_2x2(self):
        out = power_normalize(np.array([[4.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(out.S, [[1.0, 0.5], [0.5, 1.0]])

    def test_nonpositive_diagonal(self):
        with pytest.raises(NormalizationDomainError):
            power_normalize(np.diag([1.0, 0.0]))
        with pytest.raises(NormalizationDomainError):
            power_normalize(np.diag([1.0, -2.0]))

    # the stack tests below score stacks of power-normalized congruences, which only
    # _split_cond and _split_conds take; power_normalize takes one matrix

    @pytest.mark.parametrize("n", [2, 3, 10, 33, 64, 128])
    def test_stack_is_bitwise_the_per_matrix_calls(self, n):
        # congruences U^T R U are symmetric only to rounding, like optimize's G's
        rng = np.random.default_rng(n)
        R = rand_spd(n, rng)
        Gs = np.stack([U.T @ R @ U for U in (rand_orthonormal(n, rng) for _ in range(3))])
        stacked = _split_cond(Gs)
        for i, G in enumerate(Gs):
            assert stacked[i].tobytes() == _split_cond(G).tobytes()
        assert _split_conds(list(Gs)) == stacked.tolist()

    def test_stack_checks_each_matrix_against_its_own_scale(self):
        big = 1e6 * np.eye(3)
        big[0, 1] += 1e-6  # 1e-12 relative: passes on its own
        small = np.eye(3)
        small[0, 1] += 1e-9  # fails on its own, and must not pass under big's scale
        _split_conds([big])
        with pytest.raises(SymmetryError):
            _split_conds([small])
        with pytest.raises(SymmetryError):
            _split_conds([big, small])

    @pytest.mark.parametrize("scale", [0.5, 1e6], ids=["absolute", "relative"])
    def test_asymmetry_at_the_bound_passes_and_the_next_float_raises(self, scale):
        # the bound is SYMMETRY_TOL * max(1, max|M|): absolute below max|M| = 1
        bound = SYMMETRY_TOL * max(1.0, scale)

        def skewed(asym):
            M = scale * np.eye(2)
            M[1, 0] = asym  # |M - M^T| is asym, and max|M| stays scale
            return M

        over = np.nextafter(bound, np.inf)
        sym_eig(skewed(bound))
        _split_conds([np.eye(2), skewed(bound)])
        with pytest.raises(SymmetryError):
            sym_eig(skewed(over))
        with pytest.raises(SymmetryError):
            _split_conds([np.eye(2), skewed(over)])

    def test_stack_reports_the_failing_entry(self):
        # the failing stack is rescored one matrix at a time, so its G names its own entry
        with pytest.raises(NormalizationDomainError, match=r"entry 1 is -1"):
            _split_conds([np.eye(2), np.diag([1.0, -1.0])])

    def test_public_functions_take_one_matrix(self):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3)])
        with pytest.raises(InvalidInputError, match="square"):
            cond_spd(stack)
        with pytest.raises(InvalidInputError, match="square"):
            sym_eig(stack)
        with pytest.raises(InvalidDimensionError, match="square"):
            power_normalize(stack)
        with pytest.raises(InvalidInputError, match="square"):
            power_normalize(np.ones(3))

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_unit_diagonal_invariant(self, n, seed):
        R = rand_spd(n, np.random.default_rng(seed))
        out = power_normalize(R)
        assert np.max(np.abs(np.diag(out.S) - 1.0)) <= 1e-12
        assert np.max(np.abs(out.S - out.S.T)) <= 1e-12


class TestSplitConds:
    def test_equals_split_preconditioned_cond(self, rng):
        R = rand_spd(6, rng)
        Us = [rand_orthonormal(6, rng) for _ in range(3)]
        conds = _split_conds([U.T @ R @ U for U in Us])
        assert conds == [split_preconditioned_cond(R, U) for U in Us]
        assert all(type(c) is float for c in conds)

    def test_checks_g_and_scores_the_lower_triangle_of_s(self):
        # G's asymmetry is 1e-11 of max|G|, but 1e-5 in S, whose scale is 1: only G is
        # checked, and S's lower triangle [[1, .], [0.50001, 1]] is scored
        G = np.array([[1e6, 0.5], [0.50001, 1e-6]])
        conds = _split_conds([np.eye(2), G])
        assert conds == [float(_split_cond(np.eye(2))), float(_split_cond(G))]
        assert np.isclose(conds[1], 1.50001 / 0.49999, rtol=1e-10)

    def test_earliest_failure_raises(self):
        asym = np.array([[1.0, 0.5], [0.4, 1.0]])
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue is -1"):
            _split_conds([np.eye(2), indefinite, asym])
        with pytest.raises(SymmetryError):
            _split_conds([np.eye(2), asym, indefinite])


class TestSplitPreconditionedCond:
    def test_identity_transform(self, rng):
        R = rand_spd(6, rng)
        assert np.isclose(
            split_preconditioned_cond(R, np.eye(6)), cond_spd(power_normalize(R).S)
        )

    def test_identity_matrix_any_u(self, rng):
        U = rand_orthonormal(7, rng)
        assert np.isclose(split_preconditioned_cond(np.eye(7), U), 1.0)

    def test_non_orthonormal_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            split_preconditioned_cond(np.eye(3), 2.0 * np.eye(3))

    @pytest.mark.parametrize("U", [dct_matrix(6).T[:, :5], dct_matrix(6)[0]],
                             ids=["tall", "1-d"])
    def test_non_square_u_rejected(self, U):
        # a tall U with orthonormal columns used to score as 1.49
        with pytest.raises(InvalidDimensionError, match="U must be square"):
            split_preconditioned_cond(ar1_autocorr(6, 0.9), U)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_u_rejected(self, bad):
        # a nan orthonormality error passes a "> tol" test; U, not U^T R U, is the bad input
        U = np.eye(3)
        U[0, 1] = bad
        with pytest.raises(InvalidInputError, match="U has non-finite entries"):
            split_preconditioned_cond(np.eye(3), U)

    def test_invariant_under_signed_permutations(self, rng):
        R = rand_spd(6, rng)
        U = rand_orthonormal(6, rng)
        ref = split_preconditioned_cond(R, U)
        for trial in range(20):
            perm = rng.permutation(6)
            signs = rng.choice([-1.0, 1.0], size=6)
            V = U[:, perm] * signs
            assert abs(split_preconditioned_cond(R, V) - ref) <= 1e-9 * ref


@pytest.mark.parametrize("n", [1, 4, 17])
def test_orthonormality_error_is_bitwise_the_frobenius_norm(rng, n):
    U = rand_orthonormal(n, rng) + 1e-9 * rng.standard_normal((n, n))
    assert orthonormality_error(U) == float(np.linalg.norm(U.T @ U - np.eye(n)))


@pytest.mark.parametrize("n", [2, 5, 10, 12, 16, 33, 64])
def test_stacked_orthonormality_errors_are_the_frobenius_norms(rng, n):
    Us = [rand_orthonormal(n, rng) + s * rng.standard_normal((n, n)) for s in (0.0, 1e-9, 1e-3)]
    want = [float(np.linalg.norm(U.T @ U - np.eye(n))) for U in Us]
    assert _orthonormality_errors(np.stack(Us)).tolist() == want
    assert [_orthonormality_errors(U[None]).item() for U in Us] == want


class TestColumnSignInvariance:
    """Bits a column-sign flip U -> U Sigma (Sigma diagonal +-1) leaves unchanged.

    optimize descends and scores on the column signs eigh returns and makes
    the canonical sign only on the U it returns; these bits are why that
    changes no output.
    """

    @pytest.mark.parametrize("n", [2, 3, 10, 33, 64, 128])
    def test_split_cond_of_the_flipped_congruence(self, rng, n):
        R, U = rand_spd(n, rng), rand_orthonormal(n, rng)
        s = rng.choice([-1.0, 1.0], size=n)
        G = U.T @ R @ U
        flipped = (U * s).T @ R @ (U * s)
        assert flipped.tobytes() == (G * np.outer(s, s)).tobytes()  # Sigma G Sigma
        assert _split_cond(flipped) == _split_cond(G)
        want = float(_split_cond(G))
        assert _split_conds([flipped, G]) == _split_conds([G, flipped]) == [want, want]

    @pytest.mark.parametrize("n", [2, 3, 10, 33, 64, 128])
    def test_orthonormality_error_of_the_flipped_u(self, rng, n):
        U = rand_orthonormal(n, rng) + 1e-9 * rng.standard_normal((n, n))
        flipped = U * rng.choice([-1.0, 1.0], size=n)
        assert _orthonormality_errors(np.stack([U, flipped])).tolist() == [
            orthonormality_error(U)] * 2

    @pytest.mark.parametrize("n", [2, 10, 33])
    def test_sym_eig_is_canonical_and_eig_is_lapacks(self, rng, n):
        M = rand_spd(n, rng)
        raw = _eig(M)
        gamma, U = np.linalg.eigh(M)
        assert raw.U.tobytes() == U.tobytes() and raw.gamma.tobytes() == gamma.tobytes()
        sp = sym_eig(M)
        assert sp.U.tobytes() == canonical_sign(sp.U).tobytes() == canonical_sign(U).tobytes()
        assert sp.gamma.tobytes() == gamma.tobytes()

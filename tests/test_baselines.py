import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_spd
from precog.baselines import (
    BASELINES,
    METHOD_NAMES,
    Preconditioner,
    baseline_cond,
    condition_ratio,
    dct_matrix,
    dft_matrix,
    dft_split_cond,
    gauss_seidel_precond,
    ilu0_precond,
    jacobi_precond,
    none_cond,
    sor_precond,
    ssor_precond,
)
from precog.baselines import _ilu0_factors
from precog.errors import (
    IluBreakdownError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericallySingularError,
    PrecogError,
    SymmetryError,
)
from precog.matgen import ar1_autocorr, ar2_autocorr, hilbert, random_sparse_pd
from precog.spectral import cond_spd, orthonormality_error, split_preconditioned_cond

LEFT_FACTORIES = [
    jacobi_precond,
    gauss_seidel_precond,
    lambda A: sor_precond(A, 1.5),
    lambda A: ssor_precond(A, 1.5),
    ilu0_precond,
]


def dct_loop(n):
    """The DCT-II matrix built row by row, with dct_matrix's operand order."""
    C = np.empty((n, n))
    j = np.arange(n)
    C[0, :] = 1.0 / np.sqrt(n)
    for k in range(1, n):
        C[k, :] = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    return C


class TestDct:
    def test_2x2_closed_form(self):
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(dct_matrix(2), [[s, s], [s, -s]])

    def test_matches_row_loop_bitwise(self):
        for n in range(1, 129):
            assert dct_matrix(n).tobytes() == dct_loop(n).tobytes(), n

    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
    def test_orthonormal_family(self, n):
        assert orthonormality_error(dct_matrix(n)) <= 1e-12

    def test_near_optimal_for_markov(self):
        R = ar1_autocorr(64, 0.9)
        cond = split_preconditioned_cond(R, dct_matrix(64).T)
        assert cond <= 3.0

    def test_precond_wrapper(self):
        R = ar1_autocorr(8, 0.5)
        assert np.isclose(
            baseline_cond("dct", R), split_preconditioned_cond(R, dct_matrix(8).T)
        )

    def test_close_poles_match_an_extended_precision_congruence(self):
        # G = U^T R U is symmetric to 1e-13, but min diag(G) is 7.5e-13, so S's rounding
        # is asymmetric by 5e-4; the score still agrees with an np.longdouble congruence's
        R = ar2_autocorr(300, 0.9999, 0.9998)
        U = dct_matrix(300).T.astype(np.longdouble)
        G = U.T @ R.astype(np.longdouble) @ U
        d = np.sqrt(G.diagonal())
        ev = np.linalg.eigvalsh((G / np.outer(d, d)).astype(np.float64))
        assert baseline_cond("dct", R) == pytest.approx(ev[-1] / ev[0], rel=1e-6)


class TestDft:
    @pytest.mark.parametrize("n", [1, 4, 16, 64, 256])
    def test_unitary_family(self, n):
        F = dft_matrix(n)
        assert np.linalg.norm(F.conj().T @ F - np.eye(n)) <= 1e-12

    def test_identity(self):
        assert np.isclose(dft_split_cond(np.eye(8)), 1.0)

    def test_markov_near_asymptote(self):
        cond = dft_split_cond(ar1_autocorr(64, 0.9))
        assert 10.0 <= cond <= 30.0

    @pytest.mark.parametrize("R, error", [
        (np.full((3, 3), np.nan), InvalidInputError),
        (np.array([[2.0, 1.0], [0.0, 2.0]]), SymmetryError),
        (np.ones(3), InvalidInputError),
    ], ids=["nan", "asymmetric", "1-d"])
    def test_malformed_input_rejected(self, R, error):
        # these raised LinAlgError, NotPositiveDefiniteError and NumericallySingularError
        with pytest.raises(error):
            dft_split_cond(R)

    def test_nonpositive_spectrum_raises(self):
        # hilbert(13) passes cond_spd; its normalized DFT congruence has a negative eigenvalue
        cond_spd(hilbert(13))
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue is -"):
            dft_split_cond(hilbert(13))

    def test_scaled_identity(self):
        assert np.isclose(dft_split_cond(3.7 * np.eye(12)), 1.0)


class TestJacobi:
    def test_diagonal_input(self):
        A = np.diag([2.0, 5.0, 9.0])
        p = jacobi_precond(A)
        assert np.isclose(p.preconditioned_cond(A), 1.0)

    def test_identity(self):
        assert np.array_equal(jacobi_precond(np.eye(3)).payload, np.eye(3))

    def test_2x2_action(self):
        A = np.array([[4.0, 1.0], [1.0, 2.0]])
        out = jacobi_precond(A).apply_inverse(A)
        assert np.allclose(out, [[1.0, 0.25], [0.5, 1.0]])

    def test_zero_diagonal(self):
        with pytest.raises(NumericallySingularError):
            jacobi_precond(np.array([[0.0, 1.0], [1.0, 2.0]]))


class TestGaussSeidel:
    def test_lower_triangular_is_exact(self):
        A = np.array([[2.0, 0.0], [3.0, 4.0]])
        p = gauss_seidel_precond(A)
        assert np.array_equal(p.payload, A)
        assert np.isclose(p.preconditioned_cond(A), 1.0)

    def test_identity(self):
        assert np.array_equal(gauss_seidel_precond(np.eye(4)).payload, np.eye(4))

    def test_2x2_forward_substitution(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        p = gauss_seidel_precond(A)
        assert np.array_equal(p.payload, [[2.0, 0.0], [1.0, 2.0]])
        assert np.allclose(p.apply_inverse(A), [[1.0, 0.5], [0.0, 0.75]])


class TestSorSsor:
    def test_omega_one_is_gauss_seidel(self, rng):
        A = rand_spd(6, rng)
        assert np.array_equal(sor_precond(A, 1.0).payload, gauss_seidel_precond(A).payload)

    def test_identity_any_omega(self):
        for omega in (0.5, 1.0, 1.7):
            p = sor_precond(np.eye(5), omega)
            assert np.isclose(p.preconditioned_cond(np.eye(5)), 1.0)
            q = ssor_precond(np.eye(5), omega)
            assert np.isclose(q.preconditioned_cond(np.eye(5)), 1.0)

    def test_ssor_symmetric_for_symmetric_input(self, rng):
        A = rand_spd(7, rng)
        M = ssor_precond(A, 1.3).payload
        assert np.max(np.abs(M - M.T)) <= 1e-12

    def test_omega_out_of_range(self):
        for bad in (0.0, 2.0, -0.5):
            with pytest.raises(InvalidInputError):
                sor_precond(np.eye(3), bad)
            with pytest.raises(InvalidInputError):
                ssor_precond(np.eye(3), bad)


class TestRelaxationSplitting:
    @pytest.mark.parametrize("A", [
        ar1_autocorr(16, 0.9), hilbert(10, 1e-4), random_sparse_pd(12, 0.5, 0),
    ], ids=["ar1", "hilbert", "sparse-pd"])
    @pytest.mark.parametrize("omega", [1.0, 1.3, 1.5])
    def test_payloads_keep_the_bits_of_the_written_out_formulas(self, A, omega):
        D = np.diag(np.diag(A))
        K = np.tril(A, -1) + D / omega
        ssor = (omega / (2.0 - omega)) * K @ np.diag(1.0 / np.diag(A)) @ K.T
        for got, want in [
            (jacobi_precond(A), D),
            (gauss_seidel_precond(A), np.tril(A)),
            (sor_precond(A, omega), K),
            (ssor_precond(A, omega), ssor),
        ]:
            assert got.payload.tobytes() == want.tobytes()

    def test_gauss_seidel_payload_equals_tril_with_a_negative_zero(self):
        A = np.array([[4.0, -0.0, 1.0], [-0.0, 5.0, 2.0], [1.0, 2.0, 6.0]])
        M = gauss_seidel_precond(A).payload
        # only the sign of the -0.0 below the diagonal moves: D + L adds +0.0 to it
        assert np.array_equal(M, np.tril(A))
        assert not np.signbit(M[1, 0]) and np.signbit(np.tril(A)[1, 0])

    @pytest.mark.parametrize("label, build", [
        ("jacobi", jacobi_precond),
        ("gauss-seidel", gauss_seidel_precond),
        ("sor", lambda A: sor_precond(A, 1.3)),
        ("ssor", lambda A: ssor_precond(A, 1.3)),
    ])
    def test_zero_diagonal_names_the_constructor(self, label, build):
        A = np.array([[2.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericallySingularError,
                           match=f"^{label}: zero diagonal entry at index 1$"):
            build(A)

    @pytest.mark.parametrize("build", [sor_precond, ssor_precond])
    @pytest.mark.parametrize("A", [np.zeros((2, 2)), np.ones(3)], ids=["zero-diag", "1-d"])
    def test_bad_omega_wins_over_bad_input(self, build, A):
        with pytest.raises(InvalidInputError, match="omega"):
            build(A, 2.5)


def ilu0_ikj_loop(A):
    """Oracle: ILU(0) as the row-wise IKJ triple loop (Saad 2003, Alg. 10.4)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    pattern = A != 0.0
    LU = A.copy()
    for i in range(n):
        for k in range(i):
            if not pattern[i, k]:
                continue
            if LU[k, k] == 0.0:
                raise IluBreakdownError(f"zero pivot at index {k}")
            LU[i, k] /= LU[k, k]
            for j in range(k + 1, n):
                if pattern[i, j]:
                    LU[i, j] -= LU[i, k] * LU[k, j]
        if LU[i, i] == 0.0:
            raise IluBreakdownError(f"zero pivot at index {i}")
    return np.tril(LU, -1) + np.eye(n), np.triu(LU)


def ilu0_outcome(factor, A):
    """The factors factor(A) returns, or the type and message of the error it raises."""
    try:
        return factor(A)
    except PrecogError as exc:
        return type(exc), str(exc)


def assert_same_ilu0(A):
    got, want = ilu0_outcome(_ilu0_factors, A), ilu0_outcome(ilu0_ikj_loop, A)
    if isinstance(want[0], type):
        assert got == want
        return
    assert isinstance(got[0], np.ndarray), got
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


@st.composite
def ilu0_inputs(draw):
    """Random patterns, with and without diagonal dominance, with a planted -0.0.

    Integer-valued entries cancel exactly, which yields zero pivots and
    signed zeros in the factors.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        A = np.round(rng.standard_normal((n, n)) * 2.0)
    else:
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
    if draw(st.booleans()):
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    drop = rng.random((n, n)) < draw(st.floats(min_value=0.0, max_value=0.9))
    if not draw(st.booleans()):
        np.fill_diagonal(drop, False)
    A[drop] = 0.0
    A[rng.integers(n), rng.integers(n)] = -0.0
    return A


class TestIlu0:
    @given(ilu0_inputs())
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no division by a zero pivot
    def test_bitwise_equal_to_ikj_loop(self, A):
        assert_same_ilu0(A)

    def test_dense_ar1_bitwise_equal_to_ikj_loop(self):
        assert_same_ilu0(ar1_autocorr(128, 0.9))

    def test_dense_matches_full_lu(self, rng):
        A = rand_spd(6, rng) + 1.0 * np.eye(6)
        p = ilu0_precond(A)
        assert np.allclose(p.apply_inverse(A), np.eye(6), atol=1e-8)
        assert np.allclose(p.payload, A, atol=1e-10)

    def test_diagonal_input(self):
        A = np.diag([2.0, 3.0])
        Lf, Uf = _ilu0_factors(A)
        assert np.array_equal(Lf, np.eye(2))
        assert np.array_equal(Uf, A)

    def test_tridiagonal_no_fill_needed(self):
        n = 8
        A = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        p = ilu0_precond(A)
        assert np.allclose(p.apply_inverse(A), np.eye(n), atol=1e-8)
        # structural fact: exact LU of a tridiagonal matrix stays in the band
        dense_lu = ilu0_precond(A + 1e-30)  # fully dense pattern
        assert np.allclose(p.payload, dense_lu.payload, atol=1e-8)

    def test_sparse_pattern_respected(self, rng):
        A = rand_spd(6, rng) + 2.0 * np.eye(6)
        A[np.abs(A) < 0.15] = 0.0
        A = (A + A.T) / 2.0
        Lf, Uf = _ilu0_factors(A)
        off_pattern = (A == 0.0) & ~np.eye(6, dtype=bool)
        assert np.all((Lf + Uf)[off_pattern] == 0.0)

    def test_zero_pivot_breakdown(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])  # exactly singular under LU
        with pytest.raises(IluBreakdownError, match="index 1"):
            ilu0_precond(A)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


# the class and test names predate the single solve route; they are kept as test ids
class TestTriangularSolve:
    # every constructor, and a payload given directly; couplings of 1e-9 next to a unit
    # diagonal must reach the solve too
    @pytest.mark.parametrize("make", [*LEFT_FACTORIES, lambda A: Preconditioner(np.tril(A))],
                             ids=["jacobi", "gauss-seidel", "sor", "ssor", "ilu0", "payload"])
    @pytest.mark.parametrize("A", [
        ar1_autocorr(16, 0.9), hilbert(10, 1e-4), random_sparse_pd(12, 0.5, 0),
        np.diag(np.linspace(0.5, 7.0, 9)),
        np.array([[1.0, 3e-9, 0.0], [3e-9, 2.0, 1e-9], [0.0, 1e-9, 3.0]]),
    ], ids=["ar1", "hilbert", "sparse-pd", "diagonal", "tiny-couplings"])
    def test_apply_inverse_matches_the_probing_route(self, make, A):
        """Every left preconditioner applies M^{-1} as one dense solve on its payload."""
        p = make(A)
        for B in (A, A[:, 0], -0.0 * A):
            assert_same_bits(p.apply_inverse(B), np.linalg.solve(p.payload, B))


class TestConditionRatio:
    def test_equal_inputs(self):
        assert condition_ratio(5.0, 5.0) == 1.0

    def test_simple_division(self):
        assert np.isclose(condition_ratio(361.0, 19.0), 19.0)

    def test_reported_scale(self):
        assert abs(condition_ratio(1620.0, 491.94) - 3.29) <= 0.005

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            condition_ratio(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            condition_ratio(1.0, -2.0)


class TestPreconditionerType:
    def test_left_on_identity_is_one(self, rng):
        for make in LEFT_FACTORIES:
            p = make(np.eye(6))
            assert abs(p.preconditioned_cond(np.eye(6)) - 1.0) <= 1e-10

    def test_left_improves_or_matches_random_spd(self, rng):
        A = rand_spd(8, rng, reg=0.5)
        for make in LEFT_FACTORIES:
            assert np.isfinite(make(A).preconditioned_cond(A))

    def test_tiny_upper_entries_are_not_dropped(self):
        M = np.array([[1.0, 1e-9], [0.0, 1.0]])
        inv = Preconditioner(payload=M).apply_inverse(np.eye(2))
        assert np.allclose(inv, [[1.0, -1e-9], [0.0, 1.0]], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("make", LEFT_FACTORIES,
                             ids=["jacobi", "gauss-seidel", "sor", "ssor", "ilu0"])
    def test_vector_keeps_its_shape(self, make, rng):
        A = random_sparse_pd(9, 0.5, 1)
        b = rng.standard_normal(9)
        x = make(A).apply_inverse(b)
        assert x.shape == (9,)
        assert x.tobytes() == make(A).apply_inverse(b[:, None])[:, 0].tobytes()

    def test_singular_left_payload_rejected(self):
        with pytest.raises(NumericallySingularError):
            Preconditioner(payload=np.zeros((3, 3)))

    def test_none_cond(self, rng):
        A = rand_spd(6, rng)
        d = np.sqrt(np.diag(A))
        S = A / np.outer(d, d)
        ev = np.linalg.eigvalsh(S)
        assert np.isclose(none_cond(A), ev[-1] / ev[0])

    def test_method_registry(self):
        assert set(METHOD_NAMES) == {
            "precog", "dct", "dft", "jacobi", "gauss-seidel",
            "sor", "ssor", "ilu0", "none",
        }
        assert set(METHOD_NAMES) == {"precog"} | set(BASELINES)


# each baseline as the bench and the sweep scripts computed it before the registry
DIRECT_CALLS = {
    "none": none_cond,
    "dct": lambda R: split_preconditioned_cond(R, dct_matrix(R.shape[0]).T),
    "dft": dft_split_cond,
    "jacobi": lambda R: jacobi_precond(R).preconditioned_cond(R),
    "gauss-seidel": lambda R: gauss_seidel_precond(R).preconditioned_cond(R),
    "sor": lambda R: sor_precond(R).preconditioned_cond(R),
    "ssor": lambda R: ssor_precond(R).preconditioned_cond(R),
    "ilu0": lambda R: ilu0_precond(R).preconditioned_cond(R),
}


class TestBaselineRegistry:
    @pytest.mark.parametrize("R", [
        ar1_autocorr(16, 0.9), hilbert(10, 1e-4), random_sparse_pd(12, 0.5, 0),
    ], ids=["ar1", "hilbert", "sparse-pd"])
    def test_matches_direct_calls_bitwise(self, R):
        assert set(BASELINES) == set(DIRECT_CALLS)
        for method, direct in DIRECT_CALLS.items():
            assert baseline_cond(method, R) == direct(R), method

    def test_omega_reaches_sor_and_ssor(self):
        R = ar1_autocorr(8, 0.5)
        assert baseline_cond("sor", R, 1.2) == sor_precond(R, 1.2).preconditioned_cond(R)
        assert baseline_cond("ssor", R, 1.2) == ssor_precond(R, 1.2).preconditioned_cond(R)

    def test_unknown_method(self):
        with pytest.raises(InvalidInputError):
            baseline_cond("precog", np.eye(3))

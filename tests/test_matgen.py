import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precog.errors import (
    DegenerateParametersError,
    InvalidInputError,
    NotPositiveDefiniteError,
)
from precog.matgen import (
    DEFAULT_SHIFT_MARGIN,
    FAMILIES,
    MatrixSpec,
    SignalSpec,
    ar1_autocorr,
    ar1_signal,
    ar2_autocorr,
    ar2_coefficients,
    ar2_signal,
    density,
    hilbert,
    load_matrix,
    random_pd,
    random_sparse_pd,
    save_matrix,
)
from precog.spectral import cond_spd, power_normalize

# the off-diagonal densities of the README's sparsity sweep
SPARSITY_PRESETS = (5 / 6, 2 / 3, 1 / 2, 1 / 3, 1 / 5)
ORACLE_SIZES = (1, 2, 12, 40)


def ar1_autocorr_expr(n, rho):
    """Oracle: rho^|i-j| from broadcast index differences."""
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def sparse_pd_loop(n, density, seed, shift_margin=DEFAULT_SHIFT_MARGIN):
    """Oracle: random_sparse_pd over a Python list of vertex pairs, one pair at a time."""
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


AR2_PAIRS = [
    (0.015, 0.01),
    (0.15, 0.1),
    (0.75, 0.7),
    (0.25, 0.01),
    (0.75, 0.1),
    (0.9, 0.01),
    (0.95, 0.1),
    (0.99, 0.7),
]


class TestHilbert:
    def test_entries_3x3(self):
        expected = np.array(
            [[1, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]]
        )
        assert np.array_equal(hilbert(3, 0.0), expected)

    def test_cond_3x3(self):
        assert abs(cond_spd(hilbert(3, 0.0)) - 524.0568) <= 0.1

    def test_regularization_tames_condition(self):
        # alpha = 1 keeps cond below 1 + lambda_max(H) <= 1 + pi for any n
        for n in (3, 5, 10):
            assert cond_spd(hilbert(n, 1.0)) <= 1.0 + np.pi
        assert cond_spd(hilbert(10, 100.0)) < cond_spd(hilbert(10, 1.0))

    def test_pd_at_working_precision(self):
        for n in range(2, 13):
            assert np.linalg.eigvalsh(hilbert(n, 0.0))[0] > 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInputError):
            hilbert(3, -0.5)


class TestAr1:
    def test_rho_zero_is_identity(self):
        assert np.array_equal(ar1_autocorr(5, 0.0), np.eye(5))

    def test_entries(self):
        expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        assert np.allclose(ar1_autocorr(3, 0.5), expected, atol=0)

    def test_rho_range(self):
        with pytest.raises(InvalidInputError):
            ar1_autocorr(4, 1.0)
        with pytest.raises(InvalidInputError):
            ar1_autocorr(4, -0.1)

    def test_strong_correlation_is_severely_conditioned(self):
        S = power_normalize(ar1_autocorr(64, 0.95)).S
        target = (1.95 / 0.05) ** 2
        assert 0.7 * target <= cond_spd(S) <= 1.3 * target

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_bitwise_equal_to_broadcast_expression(self, n):
        for rho in (0.0, 0.3, 0.5, 0.9, 0.95, 0.999):
            assert ar1_autocorr(n, rho).tobytes() == ar1_autocorr_expr(n, rho).tobytes()

    def test_integer_rho_gives_float(self):
        assert ar1_autocorr(4, 0).dtype == np.float64


class TestAr2:
    def test_coefficients_example(self):
        c1, c2 = ar2_coefficients(0.75, 0.7)
        assert abs(c1 - 5.0164) <= 5e-4
        assert abs(c2 + 4.0164) <= 5e-4

    @pytest.mark.parametrize("rho1,rho2", AR2_PAIRS)
    def test_coefficients_sum_to_one(self, rho1, rho2):
        c1, c2 = ar2_coefficients(rho1, rho2)
        assert abs(c1 + c2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("rho1,rho2", AR2_PAIRS)
    def test_unit_diagonal(self, rho1, rho2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # none of these pairs may warn
            R = ar2_autocorr(10, rho1, rho2)
        assert np.max(np.abs(np.diag(R) - 1.0)) <= 1e-12

    def test_indefinite_result_is_left_to_its_consumers(self):
        # close poles at n=50 give a negative eigenvalue in floating point; the generator
        # returns the matrix silently and the score raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = ar2_autocorr(50, 0.99999, 0.99998)
        with pytest.raises(NotPositiveDefiniteError, match="smallest eigenvalue is -"):
            cond_spd(R)

    def test_second_pole_zero_reduces_to_ar1(self):
        c1, c2 = ar2_coefficients(0.6, 0.0)
        assert c1 == 1.0 and c2 == 0.0
        assert np.allclose(ar2_autocorr(6, 0.6, 0.0), ar1_autocorr(6, 0.6), atol=0)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParametersError):
            ar2_coefficients(0.5, 0.5)
        with pytest.raises(InvalidInputError):
            ar2_coefficients(1.2, 0.5)

    @given(
        st.floats(min_value=-0.95, max_value=0.95),
        st.floats(min_value=-0.95, max_value=0.95),
    )
    @settings(max_examples=60)
    def test_mixture_identity_property(self, rho1, rho2):
        if rho1 == rho2 or 1.0 + rho1 * rho2 == 0.0:
            return
        c1, c2 = ar2_coefficients(rho1, rho2)
        assert abs(c1 + c2 - 1.0) <= 1e-9


class TestRandomPd:
    def test_dimension_one_positive(self):
        for s in range(5):
            M = random_pd(1, s, 0.0)
            assert M.shape == (1, 1) and M[0, 0] > 0.0

    def test_deterministic(self):
        a = random_pd(6, 42, 1e-3)
        b = random_pd(6, 42, 1e-3)
        assert a.tobytes() == b.tobytes()

    def test_pd_over_seeds(self):
        for s in range(100):
            assert np.linalg.eigvalsh(random_pd(10, s, 1e-3))[0] > 0.0


class TestRandomSparsePd:
    def test_dense_at_density_one(self):
        M = random_sparse_pd(8, 1.0, 0)
        assert np.linalg.eigvalsh(M)[0] > 0.0
        off = M - np.diag(np.diag(M))
        assert np.count_nonzero(off) == 8 * 7

    @pytest.mark.parametrize("d", SPARSITY_PRESETS)
    def test_presets_are_pd(self, d):
        for s in range(5):
            M = random_sparse_pd(12, d, s)
            assert np.linalg.eigvalsh(M)[0] > 0.0
            assert np.max(np.abs(M - M.T)) == 0.0

    @pytest.mark.parametrize("d", SPARSITY_PRESETS)
    def test_off_diagonal_density_within_one_pair(self, d):
        n = 12
        M = random_sparse_pd(n, d, 3)
        off_nonzeros = np.count_nonzero(M - np.diag(np.diag(M)))
        target = d * n * (n - 1)
        assert abs(off_nonzeros - target) <= 2.0  # one symmetric pair

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    @pytest.mark.parametrize("d", SPARSITY_PRESETS)
    def test_bitwise_equal_to_pair_loop(self, d, n):
        for seed in range(3):
            M = random_sparse_pd(n, d, seed)
            assert M.tobytes() == sparse_pd_loop(n, d, seed).tobytes()

    def test_density_helper(self):
        assert density(np.eye(4)) == 0.25

    def test_rejects_bad_density(self):
        with pytest.raises(InvalidInputError):
            random_sparse_pd(6, 0.0, 0)
        with pytest.raises(InvalidInputError):
            random_sparse_pd(6, 1.5, 0)


def ar1_signal_loop(length, rho, seed):
    """Reference: the recursion on numpy scalars, one indexed store per sample."""
    nu = np.random.default_rng(seed).standard_normal(length)
    x = np.empty(length)
    x[0] = nu[0]
    c = np.sqrt(1.0 - rho * rho)
    for k in range(1, length):
        x[k] = rho * x[k - 1] + c * nu[k]
    return x


def ar2_signal_loop(length, rho1, rho2, seed):
    """Reference for ar2_signal, with the same burn-in and variance scaling."""
    a1, a2 = rho1 + rho2, -rho1 * rho2
    var = (1.0 - a2) / ((1.0 + a2) * ((1.0 - a2) ** 2 - a1 * a1))
    burn = int(np.ceil(10.0 / (1.0 - max(abs(rho1), abs(rho2)))))
    nu = np.sqrt(1.0 / var) * np.random.default_rng(seed).standard_normal(length + burn)
    x = np.empty(length + burn)
    x[0] = nu[0]
    x[1] = a1 * x[0] + nu[1]
    for k in range(2, length + burn):
        x[k] = a1 * x[k - 1] + a2 * x[k - 2] + nu[k]
    return x[burn:]


class TestSignals:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.95])
    def test_ar1_matches_loop_bitwise(self, rho):
        for seed, length in zip(range(5), (1, 2, 3000, 3001, 20016)):
            expected = ar1_signal_loop(length, rho, seed)
            assert ar1_signal(length, rho, seed).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rho1, rho2", [
        (0.9, 0.5), (0.95, 0.1), (-0.5, 0.3), (0.99, 0.98), (0.5, -0.9), (0.3, 0.0),
    ])
    def test_ar2_matches_loop_bitwise(self, rho1, rho2):
        for seed, length in zip((0, 1, 2, 3, 2**40), (1, 2, 3000, 3001, 20016)):
            expected = ar2_signal_loop(length, rho1, rho2, seed)
            assert ar2_signal(length, rho1, rho2, seed).tobytes() == expected.tobytes()

    def test_deterministic(self):
        assert np.array_equal(ar1_signal(100, 0.7, 5), ar1_signal(100, 0.7, 5))
        assert np.array_equal(ar2_signal(100, 0.7, 0.2, 5), ar2_signal(100, 0.7, 0.2, 5))

    def test_rho_zero_is_white(self):
        x = ar1_signal(50000, 0.0, 9)
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) <= 0.02
        assert abs(np.var(x) - 1.0) <= 0.05

    def test_lag_one_autocorrelation(self):
        x = ar1_signal(100000, 0.9, 11)
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1] - 0.9) <= 0.02

    def test_sample_autocorr_matches_matrix(self):
        x = ar1_signal(100000, 0.5, 12)
        X = np.lib.stride_tricks.sliding_window_view(x, 8)
        sample = X.T @ X / X.shape[0]
        assert np.max(np.abs(sample - ar1_autocorr(8, 0.5))) <= 0.03

    def test_ar2_variance_and_lag_one(self):
        y = ar2_signal(100000, 0.75, 0.7, 13)
        c1, c2 = ar2_coefficients(0.75, 0.7)
        assert abs(np.var(y) - 1.0) <= 0.05
        assert abs(np.corrcoef(y[:-1], y[1:])[0, 1] - (c1 * 0.75 + c2 * 0.7)) <= 0.02

    def test_signal_spec_dispatch(self):
        assert SignalSpec("white").autocorr(4).tolist() == np.eye(4).tolist()
        assert np.allclose(SignalSpec("ar1", rho=0.5).autocorr(3), ar1_autocorr(3, 0.5))
        with pytest.raises(InvalidInputError):
            SignalSpec("pink")

    def test_white_is_ar1_at_rho_zero(self):
        white, ar1 = SignalSpec("white", rho=0.7), SignalSpec("ar1", rho=0.0)
        assert np.array_equal(white.generate(500, 3), ar1.generate(500, 3))
        assert np.array_equal(white.autocorr(6), ar1.autocorr(6))
        assert np.array_equal(white.autocorr(6), np.eye(6))


# family -> (params, seed, the generator called directly, the expected label)
FAMILY_CASES = {
    "hilbert": ({"alpha": 0.25}, 4, lambda: hilbert(5, 0.25), "hilbert-n5-alpha0.25"),
    "random-pd": ({"reg": 0.001}, 4, lambda: random_pd(5, 4, 0.001),
                  "random-pd-n5-reg0.001-s4"),
    "sparse-pd": ({"density": 0.5, "shift_margin": 0.1}, 4,
                  lambda: random_sparse_pd(5, 0.5, 4, 0.1),
                  "sparse-pd-n5-density0.5-shift_margin0.1-s4"),
    "ar1": ({"rho": 0.8}, 4, lambda: ar1_autocorr(5, 0.8), "ar1-n5-rho0.8"),
    "ar2": ({"rho1": 0.9, "rho2": -0.3}, 4, lambda: ar2_autocorr(5, 0.9, -0.3),
            "ar2-n5-rho10.9-rho2-0.3"),
}


class TestFamilies:
    def test_cases_cover_the_registry(self):
        assert set(FAMILY_CASES) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_CASES))
    def test_spec_builds_the_generator_output(self, family):
        params, seed, direct, label = FAMILY_CASES[family]
        spec = MatrixSpec(family=family, n=5, params=params, seed=seed)
        assert np.array_equal(spec.build(), direct())
        assert spec.label() == label

    def test_missing_parameter_takes_the_generator_default(self):
        spec = MatrixSpec(family="sparse-pd", n=5, params={"density": 0.5}, seed=2)
        assert np.array_equal(spec.build(), random_sparse_pd(5, 0.5, 2))
        assert np.array_equal(MatrixSpec(family="hilbert", n=3).build(), hilbert(3))


class TestMatrixIO:
    def test_round_trip_exact(self, tmp_path, rng):
        M = rng.standard_normal((7, 7))
        path = tmp_path / "m.txt"
        save_matrix(M, path)
        assert np.array_equal(load_matrix(path), M)

    def test_format_shape(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(np.eye(3), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "3"
        assert len(lines) == 4
        assert all(len(line.split()) == 3 for line in lines[1:])

    def test_spec_build_and_label(self, tmp_path):
        spec = MatrixSpec(family="ar1", n=4, params={"rho": 0.5}, seed=0)
        assert np.allclose(spec.build(), ar1_autocorr(4, 0.5))
        assert spec.label() == "ar1-n4-rho0.5"
        M = spec.build()
        p = tmp_path / "f.txt"
        save_matrix(M, p)
        file_spec = MatrixSpec(family="file", path=str(p))
        assert np.array_equal(file_spec.build(), M)
        assert file_spec.label() == "f"

from dataclasses import fields
from types import ModuleType

import numpy as np
import pytest

import precog
from precog import tdlms
from precog.baselines import dct_matrix
from precog.errors import DivergenceError, InvalidDimensionError, InvalidInputError
from precog.graph import banded_topology
from precog.learn import HyperParams, optimize
from precog.matgen import SignalSpec, ar1_autocorr
from precog.tdlms import (
    FilterConfig,
    FilterState,
    MseTrace,
    lms_step,
    system_id_experiment,
    tdlms_step,
)


def plain_cfg(taps=4, step=0.5):
    return FilterConfig(taps=taps, step=step)


def dct_cfg(taps=4, step=0.5):
    return FilterConfig(taps=taps, step=step, transform=dct_matrix(taps).T)


def excitation(plant, input_spec, noise_db, run_len, seed):
    """Reference: a run's tap-delay windows and desired signal, built per call."""
    n = plant.size
    sig_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    x = input_spec.generate(run_len + n, int(sig_seed.generate_state(1)[0]))
    noise_rng = np.random.default_rng(int(noise_seed.generate_state(1)[0]))
    windows = np.lib.stride_tricks.sliding_window_view(x, n)[:run_len, ::-1]
    clean = windows @ plant
    noise_var = float(np.var(clean)) * 10.0 ** (-noise_db / 10.0)
    return windows, clean + np.sqrt(noise_var) * noise_rng.standard_normal(run_len)


def sysid_loop(plant, input_spec, noise_db, cfg, run_len, seed):
    """Reference: system_id_experiment as one lms_step / tdlms_step per sample."""
    windows, d = excitation(plant, input_spec, noise_db, run_len, seed)
    state = FilterState(cfg)
    e2 = np.empty(run_len)
    mis = np.empty(run_len)
    for k in range(run_len):
        if cfg.transform is None:
            state, e = lms_step(state, windows[k], d[k])
        else:
            state, e = tdlms_step(state, windows[k], d[k], cfg)
        e2[k] = e * e
        diff = state.time_domain_weights() - plant
        mis[k] = float(diff @ diff) / float(plant @ plant)
    return MseTrace(e2=e2, misalignment=mis)


def scan_loop(F, c, w):
    """Reference: every block's start weights by applying w -> F[b] w + c[b] block after block."""
    W0 = []
    for Fb, cb in zip(F, c):
        W0.append(w)
        w = Fb @ w + cb
    return np.array(W0), w


def scan_reference(F, c, w):
    """Reference: the prefix scan of the block maps, written out level by level.

    Each level composes adjacent pairs of maps; walking back down, the even
    blocks take the pairs' start weights and the odd blocks apply the even
    maps to them, and an odd last block is carried directly.
    """
    levels = []
    while len(F) > 1:
        K = len(F)
        Fe, Fo, ce, co = F[0:K - 1:2], F[1::2], c[0:K - 1:2], c[1::2]
        levels.append((F, c))
        F, c = Fo @ Fe, (Fo @ ce[..., None])[..., 0] + co
    W0, w = w[None], F[0] @ w + c[0]
    for F, c in reversed(levels):
        K = len(F)
        starts = np.empty((K, len(w)))
        starts[0:K - 1:2] = W0
        starts[1::2] = (F[0:K - 1:2] @ W0[..., None])[..., 0] + c[0:K - 1:2]
        if K % 2:
            starts[-1] = w
            w = F[-1] @ w + c[-1]
        W0 = starts
    return W0, w


def system_id_reference(plant, input_spec, noise_db, cfg, run_len, seed):
    """Reference: the block form with no memo and every constant built where it is used.

    The excitation is built per call; the decay matrices, I and the lower
    triangle are built per chunk, every chunk is padded to whole blocks, and
    the block maps are chained by scan_reference.  system_id_experiment must
    match it bit for bit.
    """
    n, B, gamma = cfg.taps, tdlms._BLOCK, tdlms._GAMMA
    windows, d = excitation(plant, input_spec, noise_db, run_len, seed)
    plant_energy = float(plant @ plant)
    U = None if cfg.transform is None else np.asarray(cfg.transform, dtype=float)
    e = np.empty(run_len)
    mis = np.empty(run_len)
    w = np.zeros(n)
    p = np.ones(n)
    for start in range(0, run_len, tdlms._CHUNK):
        stop = min(start + tdlms._CHUNK, run_len)
        m = stop - start
        V = windows[start:stop] if U is None else windows[start:stop] @ U
        pad = -m % B
        V = np.concatenate([V, np.zeros((pad, n))]).reshape(-1, B, n)
        dc = np.append(d[start:stop], np.zeros(pad)).reshape(-1, B)
        if U is None:
            Z = cfg.step * V
        else:
            K = len(V)
            lag = np.subtract.outer(np.arange(B), np.arange(B))
            P = np.where(lag >= 0, (1.0 - gamma) * gamma ** np.abs(lag), 0.0) @ (V * V)
            lag = np.subtract.outer(np.arange(K), np.arange(K))
            p_in = (np.where(lag > 0, gamma ** (B * np.abs(lag - 1)), 0.0) @ P[:, -1]
                    + gamma ** (B * np.arange(K))[:, None] * p)
            P += gamma ** np.arange(1, B + 1)[:, None] * p_in[:, None, :]
            Z, p = cfg.step * V / (P + tdlms._DELTA), P[-1, -1]
        L = V @ Z.transpose(0, 2, 1)
        sol = np.concatenate([dc[..., None], V], axis=2)
        for j in range(1, B):
            sol[:, j] -= (L[:, j, None, :j] @ sol[:, :j])[:, 0]
        a, M = sol[..., 0], sol[..., 1:]
        F = np.eye(n) - Z.transpose(0, 2, 1) @ M
        c = (a[:, None, :] @ Z)[:, 0]
        W0, w = scan_reference(F, c, w)
        ec = a - (M @ W0[..., None])[..., 0]
        W = (W0[:, None, :] + (np.tri(B) * ec[:, None, :]) @ Z).reshape(-1, n)[:m]
        diff = (W if U is None else W @ U.T) - plant
        e[start:stop] = ec.ravel()[:m]
        mis[start:stop] = np.einsum("kn,kn->k", diff, diff) / plant_energy
    return MseTrace(e2=e * e, misalignment=mis)


def assert_same_bytes(a, b):
    assert a.e2.tobytes() == b.e2.tobytes()
    assert a.misalignment.tobytes() == b.misalignment.tobytes()


class TestPackageRoot:
    def test_all_holds_no_module(self):
        assert not [n for n in precog.__all__ if isinstance(getattr(precog, n), ModuleType)]

    def test_single_step_api_is_imported_from_tdlms(self):
        # the per-step reference of system_id_experiment; the package root does not re-export it
        for name in ("lms_step", "tdlms_step", "FilterState"):
            assert not hasattr(precog, name)
            assert name not in precog.__all__
            assert callable(getattr(tdlms, name))


class TestConfig:
    def test_settable_fields(self):
        assert [f.name for f in fields(FilterConfig)] == ["taps", "step", "transform"]

    def test_validation(self):
        with pytest.raises(InvalidDimensionError):
            FilterConfig(taps=0, step=0.1)
        with pytest.raises(InvalidInputError):
            FilterConfig(taps=4, step=0.0)
        with pytest.raises(InvalidDimensionError):
            FilterConfig(taps=4, step=0.1, transform=np.eye(3))
        with pytest.raises(InvalidInputError):
            FilterConfig(taps=3, step=0.1, transform=2 * np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_transform_rejected(self, bad):
        # a nan orthonormality error passes a "> tol" test; the run then reported a divergence
        T = np.eye(3)
        T[1, 2] = bad
        with pytest.raises(InvalidInputError, match="transform has non-finite entries"):
            FilterConfig(taps=3, step=0.1, transform=T)

    @pytest.mark.parametrize("taps", [4.0, True, np.float64(4.0), "4"])
    def test_non_integer_taps_rejected(self, taps):
        with pytest.raises(InvalidInputError, match="taps must be an integer"):
            FilterConfig(taps=taps, step=0.1)

    @pytest.mark.parametrize("step", [True, np.True_, "0.1"])
    def test_non_real_step_rejected(self, step):
        # True ran as a step of 1.0
        with pytest.raises(InvalidInputError, match="step must be a real number"):
            FilterConfig(taps=4, step=step)

    def test_numpy_integer_taps_accepted(self):
        cfg = FilterConfig(taps=np.int64(4), step=0.1, transform=dct_matrix(4).T)
        assert cfg.taps == 4

    def test_transform_kept_as_checked_float_array(self):
        cfg = FilterConfig(taps=2, step=0.1, transform=[[0, 1], [1, 0]])
        assert type(cfg.transform) is np.ndarray and cfg.transform.dtype == np.float64
        assert cfg.transform.tobytes() == np.array([[0.0, 1.0], [1.0, 0.0]]).tobytes()


class TestLmsStep:
    def test_zero_input_no_update(self):
        state = FilterState(plain_cfg())
        state.weights = np.array([1.0, 2.0, 3.0, 4.0])
        before = state.weights.copy()
        state, e = lms_step(state, np.zeros(4), 7.0)
        assert e == 7.0
        assert np.array_equal(state.weights, before)

    def test_perfect_prediction_no_update(self):
        state = FilterState(plain_cfg())
        state.weights = np.array([1.0, -1.0, 0.5, 0.0])
        x = np.array([1.0, 2.0, 3.0, 4.0])
        state, e = lms_step(state, x, float(state.weights @ x))
        assert e == 0.0

    def test_single_step_recursion(self):
        state = FilterState(plain_cfg())
        x = np.array([1.0, 0.0, 0.0, 0.0])
        state, e = lms_step(state, x, 1.0)
        assert e == 1.0
        assert np.array_equal(state.weights, [0.5, 0.0, 0.0, 0.0])

    def test_rejects_a_transform_domain_state(self):
        # a plain update on transform-domain weights, which time_domain_weights maps through U
        state = FilterState(FilterConfig(4, 0.1, dct_matrix(4).T))
        with pytest.raises(InvalidInputError, match="without a transform"):
            lms_step(state, np.ones(4), 1.0)
        assert np.array_equal(state.weights, np.zeros(4))


class TestTdlmsStep:
    def test_zero_transformed_input(self):
        cfg = dct_cfg()
        state = FilterState(cfg)
        state, e = tdlms_step(state, np.zeros(4), 3.0, cfg)
        assert e == 3.0
        assert np.array_equal(state.weights, np.zeros(4))

    def test_energy_preserved_inside_step(self, rng):
        cfg = dct_cfg(taps=8)
        X = rng.standard_normal((10000, 8))
        V = X @ np.asarray(cfg.transform)  # rows transform as v = U^T x
        dev = np.abs(np.linalg.norm(V, axis=1) - np.linalg.norm(X, axis=1))
        assert np.max(dev) <= 1e-10

    def test_identity_transform_behaves_as_normalized_lms(self, rng):
        cfg = FilterConfig(taps=4, step=0.2, transform=np.eye(4))
        state = FilterState(cfg)
        # converge the power estimate on unit-power input first
        x = np.ones(4) * 0.5
        for k in range(2000):
            state, _ = tdlms_step(state, x, 0.0, cfg)
        state.weights = np.zeros(4)
        p_converged = state.power.copy()
        state, e = tdlms_step(state, x, 1.0, cfg)
        gamma, delta = tdlms._GAMMA, tdlms._DELTA
        expected = cfg.step * 1.0 * x / (p_converged * gamma + (1 - gamma) * x * x + delta)
        assert np.allclose(state.weights, expected)

    def test_requires_transform(self):
        cfg = plain_cfg()
        with pytest.raises(InvalidInputError):
            tdlms_step(FilterState(cfg), np.zeros(4), 0.0, cfg)

    @pytest.mark.parametrize("other", [
        lambda: FilterConfig(taps=4, step=0.5, transform=np.eye(4)),
        lambda: dct_cfg(),  # equal to the state's config, but another object
    ], ids=["identity", "equal-copy"])
    def test_rejects_a_config_that_is_not_the_states(self, other):
        # transform and step from cfg with power and weights from the state mix two filters
        state = FilterState(dct_cfg())
        with pytest.raises(InvalidInputError, match="state's own config"):
            tdlms_step(state, np.ones(4), 1.0, other())
        assert np.array_equal(state.weights, np.zeros(4))
        assert np.array_equal(state.power, np.ones(4))

    def test_step_scaling_keeps_update_direction(self, rng):
        # sign pattern of the first update is step-independent
        x = rng.standard_normal(4)
        d = 2.0
        updates = []
        for step in (0.1, 0.2):
            cfg = dct_cfg(step=step)
            state = FilterState(cfg)
            state, _ = tdlms_step(state, x, d, cfg)
            updates.append(state.weights)
        assert np.array_equal(np.sign(updates[0]), np.sign(updates[1]))


class TestTrace:
    def test_threshold_lookup(self):
        trace = MseTrace(
            e2=np.ones(4), misalignment=np.array([1.0, 0.5, 0.009, 0.001])
        )
        assert trace.iterations_to_threshold(-20.0) == 2
        assert trace.iterations_to_threshold(-40.0) is None


class TestSystemId:
    def test_noise_free_white_converges_deep(self):
        rng = np.random.default_rng(0)
        plant = rng.standard_normal(8)
        plant /= np.linalg.norm(plant)
        cfg = FilterConfig(taps=8, step=0.05)
        trace = system_id_experiment(
            plant, SignalSpec("white"), 300.0, cfg, 6000, seed=1
        )
        assert trace.misalignment_db[-1] < -60.0

    def test_deterministic_per_seed(self):
        plant = np.ones(4) / 2.0
        cfg = plain_cfg(step=0.05)
        spec = SignalSpec("ar1", rho=0.5)
        a = system_id_experiment(plant, spec, 30.0, cfg, 500, seed=9)
        b = system_id_experiment(plant, spec, 30.0, cfg, 500, seed=9)
        assert np.array_equal(a.e2, b.e2)
        assert np.array_equal(a.misalignment, b.misalignment)

    def test_white_input_both_filters_converge(self):
        rng = np.random.default_rng(3)
        plant = rng.standard_normal(8)
        plant /= np.linalg.norm(plant)
        spec = SignalSpec("white")
        plain = system_id_experiment(
            plant, spec, 40.0, FilterConfig(taps=8, step=0.02), 4000, seed=5
        )
        td = system_id_experiment(
            plant, spec, 40.0,
            FilterConfig(taps=8, step=0.02, transform=np.eye(8)), 4000, seed=5,
        )
        assert plain.iterations_to_threshold(-20.0) is not None
        assert td.iterations_to_threshold(-20.0) is not None

    def test_colored_input_dct_beats_plain(self):
        # smoke-scale version of the convergence-ordering property
        spec = SignalSpec("ar1", rho=0.9)
        hits = {"plain": [], "dct": []}
        for seed in range(3):
            rng = np.random.default_rng(seed)
            plant = rng.standard_normal(8)
            plant /= np.linalg.norm(plant)
            for name, cfg in (
                ("plain", FilterConfig(taps=8, step=0.01)),
                ("dct", FilterConfig(taps=8, step=0.01, transform=dct_matrix(8).T)),
            ):
                trace = system_id_experiment(plant, spec, 30.0, cfg, 8000, seed=seed)
                hit = trace.iterations_to_threshold(-20.0)
                hits[name].append(hit if hit is not None else 8001)
        assert np.median(hits["dct"]) < np.median(hits["plain"])

    def test_plant_length_checked(self):
        with pytest.raises(InvalidDimensionError):
            system_id_experiment(
                np.ones(3), SignalSpec("white"), 30.0, plain_cfg(taps=4), 100, seed=0
            )

    def test_zero_plant_rejected(self):
        with pytest.raises(InvalidInputError):
            system_id_experiment(
                np.zeros(4), SignalSpec("white"), 30.0, plain_cfg(taps=4), 100, seed=0
            )

    @pytest.mark.parametrize("noise_db", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_rejected(self, noise_db):
        # not reported as a divergence: the noise level is an input, not a filter state
        with pytest.raises(InvalidInputError, match="noise_db"):
            system_id_experiment(
                np.ones(4), SignalSpec("white"), noise_db, plain_cfg(taps=4), 100, seed=0
            )

    @pytest.mark.parametrize("run_len", [100.5, 100.0, True, np.float64(100)])
    def test_non_integer_run_len_rejected(self, run_len):
        with pytest.raises(InvalidInputError, match="run_len must be an integer"):
            system_id_experiment(
                np.ones(4), SignalSpec("white"), 30.0, plain_cfg(taps=4), run_len, seed=0
            )
        with pytest.raises(InvalidInputError, match="run_len must be an integer"):
            tdlms.check_run(run_len, 30.0)

    @pytest.mark.parametrize("noise_db", [True, False])
    def test_bool_noise_rejected(self, noise_db):
        with pytest.raises(InvalidInputError, match="noise_db must be a real number"):
            tdlms.check_run(10, noise_db)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_plant_energy_rejected(self):
        # finite entries whose energy overflows warned twice, then reported a divergence
        spec = SignalSpec("white")
        system_id_experiment(np.ones(4), spec, 30.0, plain_cfg(taps=4), 100, seed=0)
        before = tdlms._excitation.cache_info()
        with pytest.raises(InvalidInputError, match="plant energy overflows"):
            system_id_experiment(np.full(4, 1e200), spec, 30.0, plain_cfg(taps=4), 100, seed=0)
        assert tdlms._excitation.cache_info() == before  # checked before the memo is read

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, noise_db", [(1e153, 30.0), (1e5, -3000.0)],
                             ids=["output", "noise"])
    def test_overflowing_plant_output_rejected(self, scale, noise_db):
        # a finite plant energy whose output variance (or the noise power scaled from it)
        # overflows warned, then reported a divergence
        with pytest.raises(InvalidInputError, match="plant output or noise power overflows"):
            system_id_experiment(np.full(4, scale), SignalSpec("ar1", rho=0.9), noise_db,
                                 plain_cfg(taps=4), 100, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("noise_db", [-4000.0, np.float64(-4000.0), np.float32(-400.0)],
                             ids=["float", "float64", "float32"])
    def test_overflowing_noise_scale_rejected(self, noise_db):
        # 10^(-noise_db/10) overflows: a Python float raised OverflowError, numpy's warned
        with pytest.raises(InvalidInputError, match="noise_db"):
            tdlms.check_run(100, noise_db)
        with pytest.raises(InvalidInputError, match="noise_db"):
            system_id_experiment(
                np.ones(4), SignalSpec("white"), noise_db, plain_cfg(taps=4), 100, seed=0
            )

    @pytest.mark.parametrize("seed, match", [
        (-1, "seed must be nonnegative"),
        (1.5, "seed must be an integer"),
        (True, "seed must be an integer"),
    ])
    def test_bad_seed_rejected(self, seed, match):
        with pytest.raises(InvalidInputError, match=match):
            system_id_experiment(
                np.ones(4), SignalSpec("white"), 30.0, plain_cfg(taps=4), 100, seed=seed
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_plant_rejected(self, bad):
        # an inf plant was reported as a divergence, a nan one as "plant must be nonzero"
        plant = np.ones(4)
        plant[2] = bad
        for cfg in (plain_cfg(taps=4), dct_cfg(taps=4)):
            with pytest.raises(InvalidInputError, match="plant has non-finite entries"):
                system_id_experiment(plant, SignalSpec("white"), 30.0, cfg, 100, seed=0)

    def test_numpy_integer_counts_match_python_ints(self):
        plant = np.ones(4) / 2.0
        spec = SignalSpec("ar1", rho=0.5)
        want = system_id_experiment(plant, spec, 30.0, dct_cfg(taps=4), 300, seed=2)
        tdlms._excitation.cache_clear()
        got = system_id_experiment(plant, spec, 30.0, dct_cfg(taps=np.int64(4)),
                                   np.int64(300), seed=np.uint64(2))
        assert_same_bytes(got, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises(self):
        plant = np.ones(4) / 2.0
        for cfg in (plain_cfg(taps=4, step=5.0), dct_cfg(taps=4, step=5.0)):
            with pytest.raises(DivergenceError):
                system_id_experiment(plant, SignalSpec("white"), 30.0, cfg, 2000, seed=0)


@pytest.fixture(scope="module")
def learned_transform():
    """taps -> a transform learned by optimize on the AR(1) input's autocorrelation."""
    return {
        taps: optimize(ar1_autocorr(taps, 0.9), banded_topology(taps, 2),
                       HyperParams(max_iter=100, seed=0)).U
        for taps in (4, 16)
    }


# half a chunk plus a step is an odd block count, which the scan carries past its pairs
RUN_LENS = [1, tdlms._BLOCK - 1, tdlms._BLOCK + 1, tdlms._CHUNK // 2 + 1, tdlms._CHUNK + 1, 2000]
FILTERS = [
    (transform, taps)
    for transform in ("plain", "dct", "precog")
    for taps in (1, 4, 16)
    if not (transform == "precog" and taps == 1)  # no topology fits one vertex
]


@pytest.mark.parametrize("run_len", RUN_LENS)
@pytest.mark.parametrize("transform, taps", FILTERS)
def test_block_form_matches_step_recursion(learned_transform, transform, taps, run_len):
    plant = np.random.default_rng(taps).standard_normal(taps)
    plant /= np.linalg.norm(plant)
    U = {"plain": None, "dct": dct_matrix(taps).T,
         "precog": learned_transform.get(taps)}[transform]
    cfg = FilterConfig(taps=taps, step=0.02, transform=U)
    spec = SignalSpec("ar1", rho=0.9)
    got = system_id_experiment(plant, spec, 30.0, cfg, run_len, seed=7)
    want = sysid_loop(plant, spec, 30.0, cfg, run_len, seed=7)
    np.testing.assert_allclose(got.e2, want.e2, rtol=1e-7, atol=0)
    np.testing.assert_allclose(got.misalignment, want.misalignment, rtol=1e-7, atol=0)


@pytest.mark.parametrize("run_len", RUN_LENS)
@pytest.mark.parametrize("transform, taps", FILTERS)
def test_block_form_matches_reference_bitwise(learned_transform, transform, taps, run_len):
    # cold: the memo is empty; warm: the second call reads the first call's excitation
    plant = np.random.default_rng(taps).standard_normal(taps)
    plant /= np.linalg.norm(plant)
    U = {"plain": None, "dct": dct_matrix(taps).T,
         "precog": learned_transform.get(taps)}[transform]
    cfg = FilterConfig(taps=taps, step=0.02, transform=U)
    spec = SignalSpec("ar1", rho=0.9)
    want = system_id_reference(plant, spec, 30.0, cfg, run_len, seed=7)
    tdlms._excitation.cache_clear()
    assert_same_bytes(system_id_experiment(plant, spec, 30.0, cfg, run_len, seed=7), want)
    assert_same_bytes(system_id_experiment(plant, spec, 30.0, cfg, run_len, seed=7), want)


def test_every_last_chunk_length_matches_reference_bitwise():
    # a last chunk of K blocks reads the leading K x K of the full chunk's carry matrix
    plant = np.random.default_rng(1).standard_normal(3)
    spec = SignalSpec("ar2", rho1=0.9, rho2=0.5)
    for run_len in range(tdlms._CHUNK + 1, 2 * tdlms._CHUNK + 1, tdlms._BLOCK - 3):
        for cfg in (plain_cfg(taps=3, step=0.02), dct_cfg(taps=3, step=0.02)):
            want = system_id_reference(plant, spec, 20.0, cfg, run_len, seed=3)
            assert_same_bytes(system_id_experiment(plant, spec, 20.0, cfg, run_len, seed=3), want)


def test_warm_calls_equal_cold_calls_across_plants_and_seeds():
    spec = SignalSpec("ar1", rho=0.9)
    plants = [np.random.default_rng(j).standard_normal(8) for j in range(2)]
    cfgs = [plain_cfg(taps=8, step=0.01), dct_cfg(taps=8, step=0.01)]
    calls = [(j, seed, c) for j in (0, 1, 0) for seed in (4, 5, 4) for c in range(2)]
    cold = {}
    for key in set(calls):
        tdlms._excitation.cache_clear()
        j, seed, c = key
        cold[key] = system_id_experiment(plants[j], spec, 30.0, cfgs[c], 700, seed)
    for key in calls:
        j, seed, c = key
        assert_same_bytes(system_id_experiment(plants[j], spec, 30.0, cfgs[c], 700, seed),
                          cold[key])


@pytest.mark.parametrize("field, value", [
    ("plant", np.array([0.5, -0.5, 0.5, 0.5])),
    ("input_spec", SignalSpec("ar1", rho=0.5)),
    ("noise_db", 20.0),
    ("run_len", 400),
    ("seed", 5),
])
def test_each_key_field_changes_the_trace(field, value):
    base = dict(plant=np.ones(4) / 2.0, input_spec=SignalSpec("ar1", rho=0.9),
                noise_db=30.0, run_len=500, seed=4)
    changed = base | {field: value}
    cfg = dct_cfg(taps=4, step=0.02)
    a = system_id_experiment(cfg=cfg, **base)
    b = system_id_experiment(cfg=cfg, **changed)  # the memo holds base's excitation
    tdlms._excitation.cache_clear()
    assert_same_bytes(b, system_id_experiment(cfg=cfg, **changed))
    m = min(len(a.e2), len(b.e2))
    assert a.e2[:m].tobytes() != b.e2[:m].tobytes()


def test_key_tells_a_float32_noise_level_from_a_float():
    plant, spec, cfg = np.ones(4) / 2.0, SignalSpec("ar1", rho=0.9), dct_cfg(taps=4)
    system_id_experiment(plant, spec, 30.0, cfg, 300, seed=1)
    warm = system_id_experiment(plant, spec, np.float32(30.0), cfg, 300, seed=1)
    tdlms._excitation.cache_clear()
    assert_same_bytes(warm, system_id_experiment(plant, spec, np.float32(30.0), cfg, 300, seed=1))


def test_excitation_memo_is_one_read_only_entry():
    plant = np.ones(4) / 2.0
    spec = SignalSpec("white")
    for seed in range(3):
        system_id_experiment(plant, spec, 30.0, plain_cfg(taps=4), 100, seed)
    info = tdlms._excitation.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    windows, d = tdlms._excitation(plant.tobytes(), spec, 30.0, 100, 2)
    assert tdlms._excitation.cache_info().hits == info.hits + 1
    assert windows.shape == (100, 4) and d.shape == (100,)
    for arr in (windows, d):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_input_checks_run_before_the_memo():
    plant = np.ones(4) / 2.0
    before = tdlms._excitation.cache_info()
    for args in ((np.zeros(4), 100, 0), (plant, 0, 0), (plant, 100, -1), (plant, 1.5, 0)):
        with pytest.raises((InvalidDimensionError, InvalidInputError)):
            system_id_experiment(args[0], SignalSpec("white"), 30.0, plain_cfg(taps=4),
                                 args[1], args[2])
    # a string reached the memo's generate call, a dict its hash
    for spec in ("ar1", {"kind": "ar1", "rho": 0.9}):
        with pytest.raises(InvalidInputError, match="input_spec must be a SignalSpec"):
            system_id_experiment(plant, spec, 30.0, plain_cfg(taps=4), 100, 0)
    # checked before cfg.taps is read
    for cfg, name in ((None, "NoneType"), ({"taps": 4, "step": 0.1}, "dict")):
        with pytest.raises(InvalidInputError, match=f"cfg must be a FilterConfig, not {name}"):
            system_id_experiment(plant, SignalSpec("white"), 30.0, cfg, 100, 0)
    assert tdlms._excitation.cache_info() == before


@pytest.mark.parametrize("K", [1, 2, 3, 7, 63, 64, 65])
def test_scan_matches_the_block_loop(K):
    rng = np.random.default_rng(K)
    n = 6
    F = np.eye(n) + 0.05 * rng.standard_normal((K, n, n))
    c = rng.standard_normal((K, n))
    w = rng.standard_normal(n)
    W0, w_end = tdlms._scan(F, c, w)
    want_W0, want_end = scan_loop(F, c, w)
    assert W0.shape == (K, n)
    np.testing.assert_allclose(W0, want_W0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(w_end, want_end, rtol=1e-12, atol=0)
    if K == 1:  # one block is the sequential step itself
        assert W0.tobytes() == want_W0.tobytes() and w_end.tobytes() == want_end.tobytes()

from dataclasses import fields

import numpy as np
import pytest

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


def sysid_loop(plant, input_spec, noise_db, cfg, run_len, seed):
    """Reference: system_id_experiment as one lms_step / tdlms_step per sample."""
    n = cfg.taps
    sig_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    x = input_spec.generate(run_len + n, int(sig_seed.generate_state(1)[0]))
    noise_rng = np.random.default_rng(int(noise_seed.generate_state(1)[0]))
    windows = np.lib.stride_tricks.sliding_window_view(x, n)[:run_len, ::-1]
    clean = windows @ plant
    noise_var = float(np.var(clean)) * 10.0 ** (-noise_db / 10.0)
    d = clean + np.sqrt(noise_var) * noise_rng.standard_normal(run_len)

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

    def test_csv_export(self, tmp_path):
        trace = MseTrace(e2=np.array([1.0, 0.25]), misalignment=np.array([1.0, 0.1]))
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,e2,misalignment_db"
        assert lines[1].startswith("0,1.0,")
        assert len(lines) == 3


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


@pytest.mark.parametrize("run_len", [
    1, tdlms._BLOCK - 1, tdlms._BLOCK + 1, tdlms._CHUNK + 1, 2000,
])
@pytest.mark.parametrize("transform, taps", [
    (transform, taps)
    for transform in ("plain", "dct", "precog")
    for taps in (1, 4, 16)
    if not (transform == "precog" and taps == 1)  # no topology fits one vertex
])
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

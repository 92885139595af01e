"""Plain and transform-domain LMS adaptive filtering.

The transform-domain variant rotates each tap-delay vector by an
orthonormal U, tracks per-bin power with an exponential window, and
normalizes the update per bin.  Misalignment against the true plant is the
headline metric since it is independent of the noise floor; the squared
error is recorded alongside.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, InvalidDimensionError, InvalidInputError
from .matgen import SignalSpec
from .spectral import ORTHONORMALITY_TOL, orthonormality_error


@dataclass(frozen=True)
class FilterConfig:
    """Tap count, step size, power-estimator constants, optional transform.

    transform=None means plain LMS.  gamma_pow is the exponential window of
    the per-bin power estimate, delta_pow its floor; both only matter in
    the transform-domain path.
    """

    taps: int
    step: float
    gamma_pow: float = 0.99
    delta_pow: float = 1e-6
    transform: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.taps < 1:
            raise InvalidDimensionError(f"taps must be positive, got {self.taps}")
        if self.step <= 0.0:
            raise InvalidInputError(f"step must be positive, got {self.step}")
        if not 0.0 < self.gamma_pow < 1.0:
            raise InvalidInputError(f"gamma_pow must be in (0, 1), got {self.gamma_pow}")
        if self.delta_pow <= 0.0:
            raise InvalidInputError(f"delta_pow must be positive, got {self.delta_pow}")
        if self.transform is not None:
            T = np.asarray(self.transform, dtype=float)
            if T.shape != (self.taps, self.taps):
                raise InvalidDimensionError(
                    f"transform shape {T.shape} does not match taps={self.taps}"
                )
            if orthonormality_error(T) > ORTHONORMALITY_TOL:
                raise InvalidInputError("transform is not orthonormal")


@dataclass
class FilterState:
    """Adaptive weights plus per-bin power estimates; mutated sequentially."""

    cfg: FilterConfig
    weights: np.ndarray = field(init=False)
    power: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.weights = np.zeros(self.cfg.taps)
        self.power = np.ones(self.cfg.taps)

    def time_domain_weights(self) -> np.ndarray:
        """Adapted weights mapped back to the tap domain."""
        if self.cfg.transform is None:
            return self.weights
        return np.asarray(self.cfg.transform) @ self.weights


def lms_step(state: FilterState, x_vec: np.ndarray, d: float) -> tuple[FilterState, float]:
    """One plain LMS update: e = d - w.x, then w += step e x."""
    e = float(d - state.weights @ x_vec)
    state.weights = state.weights + state.cfg.step * e * x_vec
    return state, e


def tdlms_step(
    state: FilterState, x_vec: np.ndarray, d: float, cfg: FilterConfig
) -> tuple[FilterState, float]:
    """One transform-domain update with per-bin power normalization."""
    if cfg.transform is None:
        raise InvalidInputError("tdlms_step needs a transform in the config")
    v = np.asarray(cfg.transform).T @ x_vec
    state.power = cfg.gamma_pow * state.power + (1.0 - cfg.gamma_pow) * v * v
    e = float(d - state.weights @ v)
    state.weights = state.weights + cfg.step * e * v / (state.power + cfg.delta_pow)
    return state, e


@dataclass
class MseTrace:
    """Per-iteration squared error and plant-relative misalignment."""

    e2: np.ndarray
    misalignment: np.ndarray

    @property
    def misalignment_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.misalignment)

    def iterations_to_threshold(self, db: float) -> int | None:
        """First iteration at which misalignment drops to db or below."""
        hits = np.nonzero(self.misalignment <= 10.0 ** (db / 10.0))[0]
        return int(hits[0]) if hits.size else None

    def to_csv(self, path: str | Path) -> None:
        mdb = self.misalignment_db
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "e2", "misalignment_db"])
            for k in range(len(self.e2)):
                writer.writerow([k, repr(float(self.e2[k])), repr(float(mdb[k]))])


def system_id_experiment(
    plant: np.ndarray,
    input_spec: SignalSpec,
    noise_db: float,
    cfg: FilterConfig,
    run_len: int,
    seed: int,
) -> MseTrace:
    """Identify a known FIR plant from noisy observations.

    The excitation comes from the seeded signal generators; the desired
    signal is the plant output plus white measurement noise scaled so the
    signal-to-noise ratio is noise_db.  Misalignment is measured against
    the true plant in the tap domain.  A run that overflows raises DivergenceError.
    """
    plant = np.asarray(plant, dtype=float)
    if plant.shape != (cfg.taps,):
        raise InvalidDimensionError(
            f"plant length {plant.shape} does not match taps={cfg.taps}"
        )
    if run_len < 1:
        raise InvalidDimensionError(f"run_len must be positive, got {run_len}")
    n = cfg.taps
    sig_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    x = input_spec.generate(run_len + n, int(sig_seed.generate_state(1)[0]))
    noise_rng = np.random.default_rng(int(noise_seed.generate_state(1)[0]))

    # tap-delay regressors: x_vec(k) = (x[k+n-1], ..., x[k])
    windows = np.lib.stride_tricks.sliding_window_view(x, n)[:run_len, ::-1]
    clean = windows @ plant
    noise_var = float(np.var(clean)) * 10.0 ** (-noise_db / 10.0)
    d = clean + np.sqrt(noise_var) * noise_rng.standard_normal(run_len)

    state = FilterState(cfg)
    e2 = np.empty(run_len)
    mis = np.empty(run_len)
    plant_energy = float(plant @ plant)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(run_len):
            x_vec = windows[k]
            if cfg.transform is None:
                state, e = lms_step(state, x_vec, d[k])
            else:
                state, e = tdlms_step(state, x_vec, d[k], cfg)
            e2[k] = e * e
            diff = state.time_domain_weights() - plant
            mis[k] = float(diff @ diff) / plant_energy
    if not (np.all(np.isfinite(e2)) and np.all(np.isfinite(mis))):
        raise DivergenceError(f"filter diverged (non-finite error) with step {cfg.step:g}")
    return MseTrace(e2=e2, misalignment=mis)

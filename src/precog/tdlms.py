"""Plain and transform-domain LMS adaptive filtering.

The transform-domain variant rotates each tap-delay vector by an
orthonormal U, tracks per-bin power with an exponential window, and
normalizes the update per bin.  Misalignment against the true plant is the
headline metric since it is independent of the noise floor; the squared
error is recorded alongside.

lms_step and tdlms_step are the single-step API.  system_id_experiment
runs the same recursion in its exact block form (Benesty and Duhamel, "A
fast exact least mean square adaptive algorithm", IEEE TSP 1992): within a
block of B steps the a-priori errors solve one unit lower-triangular
system, so only one n x n affine weight map per block stays sequential.
Its results match the per-step recursion to rounding, not bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, InvalidDimensionError, InvalidInputError
from .matgen import SignalSpec
from .spectral import ORTHONORMALITY_TOL, orthonormality_error

# steps per block system, and steps per chunk, which bounds the transient
# arrays; 16-step blocks ran as fast as 32 and faster than 8
_BLOCK = 16
_CHUNK = 32 * _BLOCK


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
        if not 0.0 < self.step < np.inf:  # nan fails too
            raise InvalidInputError(f"step must be positive and finite, got {self.step}")
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


def _gain_blocks(
    V: np.ndarray, cfg: FilterConfig, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step gains z_k for (K, B, n) regressor blocks, and the power after them.

    Plain LMS: z_k = step v_k.  Transform domain: z_k = step v_k / (p_k + delta)
    with p_k = gamma p_{k-1} + (1 - gamma) v_k^2 and p_{-1} = p, summed per
    block with a B x B Toeplitz matrix of powers of gamma, plus the power
    each block starts from, gamma^(a+1) p_in.
    """
    if cfg.transform is None:
        return cfg.step * V, p
    K, B, _ = V.shape
    gamma = cfg.gamma_pow
    lag = np.subtract.outer(np.arange(B), np.arange(B))
    P = np.where(lag >= 0, (1.0 - gamma) * gamma ** np.abs(lag), 0.0) @ (V * V)
    # p_in of block b: gamma^(bB) p + sum_{j<b} gamma^((b-1-j)B) (block j's own last power)
    lag = np.subtract.outer(np.arange(K), np.arange(K))
    p_in = (np.where(lag > 0, gamma ** (B * np.abs(lag - 1)), 0.0) @ P[:, -1]
            + gamma ** (B * np.arange(K))[:, None] * p)
    P += gamma ** np.arange(1, B + 1)[:, None] * p_in[:, None, :]
    return cfg.step * V / (P + cfg.delta_pow), P[-1, -1]


def _block_lms(V: np.ndarray, d: np.ndarray, Z: np.ndarray, w: np.ndarray):
    """Run e_k = d_k - w.v_k, w += e_k z_k over (K, B) blocks without a per-step loop.

    Inside a block that starts at w0 the a-priori errors solve the unit
    lower-triangular system (I + tril(V Z^T, -1)) e = d - V w0.  One forward
    substitution for the right-hand sides [d | V], batched over the blocks,
    gives e = a - M w0, and the block ends at (I - Z^T M) w0 + Z^T a.  Only
    that n x n affine map is applied block after block.  Returns the errors
    (K, B), the weights after every step (K, B, n) and the final weights.
    """
    B, n = V.shape[1:]
    L = V @ Z.transpose(0, 2, 1)
    sol = np.concatenate([d[..., None], V], axis=2)
    for j in range(1, B):
        sol[:, j] -= (L[:, j, None, :j] @ sol[:, :j])[:, 0]
    a, M = sol[..., 0], sol[..., 1:]
    F = np.eye(n) - Z.transpose(0, 2, 1) @ M
    c = (a[:, None, :] @ Z)[:, 0]
    W0 = []
    for Fb, cb in zip(F, c):
        W0.append(w)
        w = Fb @ w + cb
    W0 = np.array(W0)
    e = a - (M @ W0[..., None])[..., 0]
    W = W0[:, None, :] + (np.tri(B) * e[:, None, :]) @ Z
    return e, W, w


def check_run(run_len: int, noise_db: float) -> None:
    """Reject a run length below 1 or a non-finite signal-to-noise ratio."""
    if run_len < 1:
        raise InvalidDimensionError(f"run_len must be positive, got {run_len}")
    if not np.isfinite(noise_db):
        raise InvalidInputError(f"noise_db must be finite, got {noise_db}")


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

    The filter is the recursion of lms_step / tdlms_step in its exact block
    form (_gain_blocks, _block_lms), run chunk by chunk with the weights and
    the power estimate carried across.  Results match the per-step
    recursion to rounding, not bit for bit.
    """
    plant = np.asarray(plant, dtype=float)
    if plant.shape != (cfg.taps,):
        raise InvalidDimensionError(
            f"plant length {plant.shape} does not match taps={cfg.taps}"
        )
    check_run(run_len, noise_db)
    plant_energy = float(plant @ plant)
    if not plant_energy > 0.0:
        raise InvalidInputError("plant must be nonzero: misalignment is relative to its energy")
    n = cfg.taps
    sig_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    x = input_spec.generate(run_len + n, int(sig_seed.generate_state(1)[0]))
    noise_rng = np.random.default_rng(int(noise_seed.generate_state(1)[0]))

    # tap-delay regressors: x_vec(k) = (x[k+n-1], ..., x[k])
    windows = np.lib.stride_tricks.sliding_window_view(x, n)[:run_len, ::-1]
    clean = windows @ plant
    noise_var = float(np.var(clean)) * 10.0 ** (-noise_db / 10.0)
    d = clean + np.sqrt(noise_var) * noise_rng.standard_normal(run_len)

    U = None if cfg.transform is None else np.asarray(cfg.transform, dtype=float)
    e = np.empty(run_len)
    mis = np.empty(run_len)
    w = np.zeros(n)
    p = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, run_len, _CHUNK):
            stop = min(start + _CHUNK, run_len)
            m = stop - start
            V = windows[start:stop] if U is None else windows[start:stop] @ U
            # zero steps after the run's last one fill its last block; nothing reads them
            pad = -m % _BLOCK
            V = np.concatenate([V, np.zeros((pad, n))]).reshape(-1, _BLOCK, n)
            dc = np.append(d[start:stop], np.zeros(pad)).reshape(-1, _BLOCK)
            Z, p = _gain_blocks(V, cfg, p)
            ec, W, w = _block_lms(V, dc, Z, w)
            W = W.reshape(-1, n)[:m]
            diff = (W if U is None else W @ U.T) - plant
            e[start:stop] = ec.ravel()[:m]
            mis[start:stop] = np.einsum("kn,kn->k", diff, diff) / plant_energy
        e2 = e * e
    if not (np.all(np.isfinite(e2)) and np.all(np.isfinite(mis))):
        raise DivergenceError(f"filter diverged (non-finite error) with step {cfg.step:g}")
    return MseTrace(e2=e2, misalignment=mis)

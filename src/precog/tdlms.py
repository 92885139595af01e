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

Each piece of work is done once.  The decay matrices of the power
estimate, whose entries depend only on a lag, are built once for a full
chunk at import, and a shorter last chunk reads their leading slices.  The
excitation of a run (tap-delay windows and desired signal) is kept for the
next call with the same plant, signal, noise level, length and seed, so
plain, DCT and learned filters compared on one plant build it once.  Both
are the same IEEE operations on the same operands as building them per
chunk and per call, so every trace is bitwise what it was.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergenceError,
    InvalidDimensionError,
    InvalidInputError,
    _check_count,
    _check_real,
    _check_seed,
    _real_array,
)
from .matgen import SignalSpec
from .spectral import _check_orthonormal

# steps per block system, and steps per chunk, which bounds the transient
# arrays; 16-step blocks ran as fast as 32 and faster than 8
_BLOCK = 16
_CHUNK = 32 * _BLOCK
# transform-domain power estimate: exponential window and floor
_GAMMA = 0.99
_DELTA = 1e-6


def _lags(m: int) -> np.ndarray:
    return np.subtract.outer(np.arange(m), np.arange(m))


# _gain_blocks' decay factors for a full chunk of _CHUNK // _BLOCK blocks: the power
# estimate's step weights inside a block, the carry from earlier blocks' last powers,
# and the decay of the power each block starts from
_IN_BLOCK = np.where(_lags(_BLOCK) >= 0, (1.0 - _GAMMA) * _GAMMA ** np.abs(_lags(_BLOCK)), 0.0)
_CARRY = np.where(_lags(_CHUNK // _BLOCK) > 0,
                  _GAMMA ** (_BLOCK * np.abs(_lags(_CHUNK // _BLOCK) - 1)), 0.0)
_START = _GAMMA ** (_BLOCK * np.arange(_CHUNK // _BLOCK))[:, None]
_DECAY = _GAMMA ** np.arange(1, _BLOCK + 1)[:, None]
_TRI = np.tri(_BLOCK)


@dataclass(frozen=True)
class FilterConfig:
    """Tap count, step size and optional transform; transform=None means plain LMS."""

    taps: int
    step: float
    transform: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_count("taps", self.taps)
        _check_real("step", self.step, gt=0)
        if self.transform is not None:
            shape = np.shape(self.transform)
            if shape != (self.taps, self.taps):
                raise InvalidDimensionError(
                    f"transform shape {shape} does not match taps={self.taps}"
                )
            _check_orthonormal(self.transform, "transform")


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
    state.power = _GAMMA * state.power + (1.0 - _GAMMA) * v * v
    e = float(d - state.weights @ v)
    state.weights = state.weights + cfg.step * e * v / (state.power + _DELTA)
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


def _gain_blocks(
    V: np.ndarray, cfg: FilterConfig, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step gains z_k for (K, B, n) regressor blocks, and the power after them.

    Plain LMS: z_k = step v_k.  Transform domain: z_k = step v_k / (p_k + delta)
    with p_k = gamma p_{k-1} + (1 - gamma) v_k^2 and p_{-1} = p, summed per
    block with the B x B Toeplitz matrix _IN_BLOCK of powers of gamma, plus
    the power each block starts from, gamma^(a+1) p_in.  K blocks read the
    leading K of the full chunk's factors.
    """
    if cfg.transform is None:
        return cfg.step * V, p
    K = len(V)
    P = _IN_BLOCK @ (V * V)
    # p_in of block b: gamma^(bB) p + sum_{j<b} gamma^((b-1-j)B) (block j's own last power)
    p_in = _CARRY[:K, :K] @ P[:, -1] + _START[:K] * p
    P += _DECAY * p_in[:, None, :]
    return cfg.step * V / (P + _DELTA), P[-1, -1]


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
    # I - Z^T M without building I: 0 - x is eye's off-diagonal, and (0 - x) + 1 is 1 - x
    F = 0.0 - Z.transpose(0, 2, 1) @ M
    F.reshape(len(F), -1)[:, :: n + 1] += 1.0
    c = (a[:, None, :] @ Z)[:, 0]
    W0 = []
    for Fb, cb in zip(F, c):
        W0.append(w)
        w = Fb @ w + cb
    W0 = np.array(W0)
    e = a - (M @ W0[..., None])[..., 0]
    W = W0[:, None, :] + (_TRI * e[:, None, :]) @ Z
    return e, W, w


@np.errstate(over="raise")  # so that a numpy noise_db's overflowing power raises too
def check_run(run_len: int, noise_db: float) -> None:
    """Reject a non-integer or non-positive run_len, or a noise_db with no finite noise scale."""
    _check_count("run_len", run_len)
    _check_real("noise_db", noise_db)
    try:  # _excitation's scale, which overflows below about -3082.5 dB
        10.0 ** (-noise_db / 10.0)
    except (OverflowError, FloatingPointError):
        raise InvalidInputError(f"noise_db={noise_db} overflows the noise scale") from None


@functools.lru_cache(maxsize=1, typed=True)
def _excitation(
    plant_bytes: bytes, input_spec: SignalSpec, noise_db: float, run_len: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tap-delay windows (run_len, n) and desired signal d of one run.

    The key is every input they read: the plant's bytes (which fix n), the
    signal, noise_db, run_len and seed, each with its type, since a float32
    noise_db computes in float32.  The one entry kept is the last run's, so
    calls that differ only in the filter share one excitation.
    """
    plant = np.frombuffer(plant_bytes)
    n = plant.size
    sig_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    x = input_spec.generate(run_len + n, int(sig_seed.generate_state(1)[0]))
    x.flags.writeable = False
    noise_rng = np.random.default_rng(int(noise_seed.generate_state(1)[0]))

    # tap-delay regressors: x_vec(k) = (x[k+n-1], ..., x[k])
    windows = np.lib.stride_tricks.sliding_window_view(x, n)[:run_len, ::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        clean = windows @ plant
        noise_var = float(np.var(clean)) * 10.0 ** (-noise_db / 10.0)
    if not np.isfinite(noise_var):
        raise InvalidInputError("plant output or noise power overflows")
    d = clean + np.sqrt(noise_var) * noise_rng.standard_normal(run_len)
    d.flags.writeable = False
    return windows, d


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

    Every input is checked first.  The excitation is then read from a
    one-entry memo keyed by the plant's bytes, the signal, noise_db, run_len
    and seed: a second filter on the same plant and seed skips the signal
    recursion, the plant output and the noise draw, and reads the same
    arrays the first call built, so its trace is bitwise a cold call's.

    The filter is the recursion of lms_step / tdlms_step in its exact block
    form (_gain_blocks, _block_lms), run chunk by chunk with the weights and
    the power estimate carried across.  Results match the per-step
    recursion to rounding, not bit for bit.
    """
    plant = _real_array("plant", plant)
    if plant.shape != (cfg.taps,):
        raise InvalidDimensionError(f"plant length {plant.shape} does not match taps={cfg.taps}")
    check_run(run_len, noise_db)
    _check_seed(seed)
    if not np.isfinite(plant).all():
        raise InvalidInputError("plant has non-finite entries")
    with np.errstate(over="ignore"):
        plant_energy = float(plant @ plant)
    if not plant_energy > 0.0:
        raise InvalidInputError("plant must be nonzero: misalignment is relative to its energy")
    if plant_energy == np.inf:
        raise InvalidInputError("plant energy overflows: misalignment is relative to it")
    windows, d = _excitation(plant.tobytes(), input_spec, noise_db, run_len, seed)

    n = cfg.taps
    U = None if cfg.transform is None else np.asarray(cfg.transform, dtype=float)
    e = np.empty(run_len)
    mis = np.empty(run_len)
    w = np.zeros(n)
    p = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, run_len, _CHUNK):
            stop = min(start + _CHUNK, run_len)
            m = stop - start
            # contiguous like a padded V, so each product takes one path on any numpy
            V = np.ascontiguousarray(windows[start:stop]) if U is None else windows[start:stop] @ U
            dc = d[start:stop]
            if m % _BLOCK:
                # zero steps after the run's last one fill its last block; nothing reads them
                pad = _BLOCK - m % _BLOCK
                V = np.concatenate([V, np.zeros((pad, n))])
                dc = np.append(dc, np.zeros(pad))
            V, dc = V.reshape(-1, _BLOCK, n), dc.reshape(-1, _BLOCK)
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

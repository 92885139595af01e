"""Command-line interface.

Subcommands: gen (matrix files), bench (multi-method condition-ratio CSV),
gradcheck (finite-difference certification), precondition (single-matrix
learning run), lms (system-identification trace).

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Reports are
deterministic for a fixed config and seed; wall-clock timing is opt-in
(--timing) so that the default CSV is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    DEFAULT_OMEGA,
    METHOD_NAMES,
    dct_matrix,
    dft_split_cond,
    gauss_seidel_precond,
    ilu0_precond,
    jacobi_precond,
    none_cond,
    sor_precond,
    ssor_precond,
)
from .errors import PrecogError
from .graph import WeightedGraph, banded_topology, full_topology, laplacian
from .learn import HyperParams, cost_E, cost_EN, grad_E_wrt_U, grad_EN_wrt_w, optimize
from .matgen import (
    DEFAULT_SHIFT_MARGIN,
    MatrixSpec,
    SignalSpec,
    density,
    random_pd,
    save_matrix,
)
from .spectral import cond_spd, split_preconditioned_cond, sym_eig
from .tdlms import FilterConfig, system_id_experiment

BENCH_HEADER = (
    "matrix_id,n,family,params,method,cond_raw,cond_method,condition_ratio,"
    "log10_ratio,iterations,wall_ms,seed,gradient_mode,status,tool_version"
)

GRADCHECK_MAX_N = 10
GRADCHECK_U_TOL = 1e-5
GRADCHECK_W_TOL = 1e-3


class UsageError(Exception):
    """Bad command line or environment; main reports it and exits 2."""


def _env_seed() -> int:
    raw = os.environ.get("PRECOG_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PRECOG_SEED must be an integer, got {raw!r}") from None


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _add_matrix_flags(p: argparse.ArgumentParser, with_files: bool = False) -> None:
    if with_files:
        p.add_argument("--matrix", action="append", default=[], metavar="PATH",
                       help="matrix text file (repeatable)")
    p.add_argument("--family", choices=[f for f in MatrixSpec.FAMILIES if f != "file"],
                   help="generate a matrix family instead of reading files")
    p.add_argument("--n", type=int, default=8, help="matrix dimension")
    p.add_argument("--alpha", type=float, default=0.0, help="hilbert regularizer")
    p.add_argument("--reg", type=float, default=1e-3, help="random-pd regularizer")
    p.add_argument("--density", type=float, default=0.5, help="sparse-pd density")
    p.add_argument("--shift-margin", type=float, default=DEFAULT_SHIFT_MARGIN,
                   help="sparse-pd diagonal margin")
    p.add_argument("--rho", type=float, default=0.9, help="ar1 correlation factor")
    p.add_argument("--rho1", type=float, default=0.9, help="ar2 first pole")
    p.add_argument("--rho2", type=float, default=0.5, help="ar2 second pole")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    hp = HyperParams()
    p.add_argument("--mu", type=float, default=hp.mu, help="gradient step size")
    p.add_argument("--beta", type=float, default=hp.beta, help="weight-norm regularizer")
    p.add_argument("--eps1", type=float, default=hp.eps1, help="upper band half-width")
    p.add_argument("--eps2", type=float, default=hp.eps2, help="lower band half-width")
    p.add_argument("--max-iter", type=int, default=hp.max_iter, help="iteration budget")
    p.add_argument("--tol", type=float, default=hp.tol, help="cost-change stop threshold")
    p.add_argument("--gradient-mode", choices=["perturbation", "paper-chain"],
                   default=hp.gradient_mode)
    p.add_argument("--band-exit", action="store_true",
                   help="stop once all normalized eigenvalues enter the band")
    p.add_argument("--topology", choices=["banded", "full"], default="full")
    p.add_argument("--band", type=int, default=2, help="band width for banded topology")


def _matrix_spec_from_args(args: argparse.Namespace, seed: int) -> MatrixSpec:
    fam = args.family
    params: dict = {}
    if fam == "hilbert":
        params["alpha"] = args.alpha
    elif fam == "random-pd":
        params["reg"] = args.reg
    elif fam == "sparse-pd":
        params["density"] = args.density
        params["shift_margin"] = args.shift_margin
    elif fam == "ar1":
        params["rho"] = args.rho
    elif fam == "ar2":
        params["rho1"] = args.rho1
        params["rho2"] = args.rho2
    return MatrixSpec(family=fam, n=args.n, params=params, seed=seed)


def _hyperparams_from_args(args: argparse.Namespace, seed: int) -> HyperParams:
    return HyperParams(
        mu=args.mu,
        beta=args.beta,
        eps1=args.eps1,
        eps2=args.eps2,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=seed,
        gradient_mode=args.gradient_mode,
        band_exit=args.band_exit,
    )


def _topology_from_args(args: argparse.Namespace, n: int):
    if args.topology == "banded":
        return banded_topology(n, args.band)
    return full_topology(n)


def cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    if args.family is None:
        raise PrecogError("gen needs --family")
    spec = _matrix_spec_from_args(args, seed)
    M = spec.build()
    save_matrix(M, args.out)
    cond = cond_spd(M)
    extra = f" density={density(M)!r}" if args.family == "sparse-pd" else ""
    print(f"{spec.label()} n={M.shape[0]} cond={cond!r}{extra} -> {args.out}")
    return 0


def _method_cond(method: str, R: np.ndarray, args: argparse.Namespace,
                 precog_cond: float | None, precog_iters: int | None):
    """Return (cond_method, iterations) for one benchmark cell."""
    if method == "precog":
        return precog_cond, precog_iters
    if method == "none":
        return none_cond(R), None
    if method == "dct":
        return split_preconditioned_cond(R, dct_matrix(R.shape[0]).T), None
    if method == "dft":
        return dft_split_cond(R), None
    if method == "jacobi":
        return jacobi_precond(R).preconditioned_cond(R), None
    if method == "gauss-seidel":
        return gauss_seidel_precond(R).preconditioned_cond(R), None
    if method == "sor":
        return sor_precond(R, args.omega).preconditioned_cond(R), None
    if method == "ssor":
        return ssor_precond(R, args.omega).preconditioned_cond(R), None
    if method == "ilu0":
        return ilu0_precond(R).preconditioned_cond(R), None
    raise PrecogError(f"unknown method {method!r}")


def cmd_bench(args: argparse.Namespace) -> int:
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    if seeds is None:
        seeds = [args.seed if args.seed is not None else _env_seed()]
    methods = sorted({m.strip() for m in args.methods.split(",") if m.strip()})
    for m in methods:
        if m not in METHOD_NAMES:
            raise PrecogError(f"unknown method {m!r}; choose from {METHOD_NAMES}")
    if "precog" not in methods:
        methods = ["precog"] + methods

    specs: list[tuple[MatrixSpec, int]] = []
    for seed in seeds:
        for path in args.matrix:
            specs.append((MatrixSpec(family="file", path=path), seed))
        if args.family is not None:
            specs.append((_matrix_spec_from_args(args, seed), seed))
    if not specs:
        raise PrecogError("bench needs --matrix and/or --family")

    rows = []
    n_failed = 0
    for spec, seed in specs:
        R = spec.build()
        n = R.shape[0]
        matrix_id = spec.label() if len(seeds) == 1 else f"{spec.label()}#s{seed}"
        params_str = ";".join(f"{k}={v:g}" for k, v in sorted(spec.params.items()))
        cond_raw = cond_spd(R)
        hp = _hyperparams_from_args(args, seed)
        topo = _topology_from_args(args, n)

        precog_cond = None
        precog_iters = None
        precog_status = "ok"
        t0 = time.perf_counter()
        try:
            result = optimize(R, topo, hp)
            precog_cond = split_preconditioned_cond(R, result.U)
            precog_iters = len(result.history)
        except PrecogError as exc:
            precog_status = type(exc).__name__
        precog_ms = 1000.0 * (time.perf_counter() - t0)

        for method in sorted(methods):
            status = "ok"
            cond_method = None
            iters = None
            t0 = time.perf_counter()
            try:
                if method == "precog":
                    if precog_status != "ok":
                        raise PrecogError(precog_status)
                    cond_method, iters = precog_cond, precog_iters
                else:
                    cond_method, iters = _method_cond(method, R, args,
                                                      precog_cond, precog_iters)
            except PrecogError as exc:
                status = precog_status if method == "precog" else type(exc).__name__
                n_failed += 1
            wall_ms = precog_ms if method == "precog" else 1000.0 * (time.perf_counter() - t0)
            ratio = None
            log_ratio = None
            if cond_method is not None and precog_cond is not None:
                ratio = cond_method / precog_cond
                log_ratio = float(np.log10(ratio))
            rows.append({
                "matrix_id": matrix_id,
                "n": n,
                "family": spec.family,
                "params": params_str,
                "method": method,
                "cond_raw": cond_raw,
                "cond_method": cond_method,
                "condition_ratio": ratio,
                "log10_ratio": log_ratio,
                "iterations": iters,
                "wall_ms": wall_ms if args.timing else None,
                "seed": seed,
                "gradient_mode": args.gradient_mode,
                "status": status,
            })

    rows.sort(key=lambda r: (r["matrix_id"], r["method"], r["seed"]))
    lines = [BENCH_HEADER]
    for r in rows:
        lines.append(",".join([
            r["matrix_id"], str(r["n"]), r["family"], r["params"], r["method"],
            _fmt(r["cond_raw"]), _fmt(r["cond_method"]), _fmt(r["condition_ratio"]),
            _fmt(r["log10_ratio"]), _fmt(r["iterations"]), _fmt(r["wall_ms"]),
            str(r["seed"]), r["gradient_mode"], r["status"], __version__,
        ]))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if rows and n_failed == len(rows) else 0


def _central_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of the scalar f over every entry of x."""
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        out[idx] = (f(xp) - f(xm)) / (2 * h)
    return out


def cmd_gradcheck(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    n = args.n
    rng = np.random.default_rng(seed)
    R = random_pd(n, seed, 0.1)
    topo = _topology_from_args(args, n)
    hp = HyperParams(seed=seed, gradient_mode=args.mode)

    # sample a weight vector with a resolvable spectrum
    w = None
    for _ in range(10):
        cand = rng.standard_normal(topo.n_edges)
        gamma = sym_eig(laplacian(WeightedGraph(topo, cand))).gamma
        if float(np.min(np.diff(gamma))) >= hp.degeneracy_gap:
            w = cand
            break
    if w is None:
        print("gradcheck: could not sample a non-degenerate spectrum", file=sys.stderr)
        return 1
    g = WeightedGraph(topo, w)

    worst_u = 0.0
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Ga = grad_E_wrt_U(R, Q, hp.eps1, hp.eps2, formula="canonical")
        Gf = _central_diff(lambda V: cost_E(R, V, hp.eps1, hp.eps2), Q)
        worst_u = max(worst_u, float(np.linalg.norm(Ga - Gf) / np.linalg.norm(Gf)))

    fd_w = _central_diff(lambda v: cost_EN(WeightedGraph(topo, v), R, hp), w)
    an_w = grad_EN_wrt_w(g, R, HyperParams(seed=seed, gradient_mode="perturbation"))
    err_w = float(np.linalg.norm(an_w - fd_w) / np.linalg.norm(fd_w))

    chain = grad_EN_wrt_w(g, R, HyperParams(seed=seed, gradient_mode="paper-chain"))
    chain_disc = float(np.linalg.norm(chain - fd_w) / np.linalg.norm(fd_w))

    print(f"gradcheck n={n} topology={args.topology} seed={seed} mode={args.mode}")
    print(f"canonical dE/dU vs finite differences: rel err = {worst_u:.3e}")
    print(f"perturbation dEN/dw vs finite differences: rel err = {err_w:.3e}")
    print(f"paper-chain dEN/dw discrepancy vs finite differences: {chain_disc:.3e} (reported only)")
    ok = worst_u <= GRADCHECK_U_TOL and err_w <= GRADCHECK_W_TOL
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_precondition(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    if args.matrix:
        spec = MatrixSpec(family="file", path=args.matrix)
    elif args.family is not None:
        spec = _matrix_spec_from_args(args, seed)
    else:
        raise PrecogError("precondition needs --matrix or --family")
    R = spec.build()
    hp = _hyperparams_from_args(args, seed)
    topo = _topology_from_args(args, R.shape[0])
    result = optimize(R, topo, hp)
    learned = split_preconditioned_cond(R, result.U)
    baseline = none_cond(R)
    save_matrix(result.U, args.out_u)
    if args.history:
        lines = ["iteration,cost,split_cond,grad_norm"]
        for rec in result.history:
            lines.append(f"{rec.t},{rec.cost!r},{rec.split_cond!r},{rec.grad_norm!r}")
        Path(args.history).write_text("\n".join(lines) + "\n")
    print(
        f"{spec.label()}: power-normalized cond={baseline!r} learned cond={learned!r} "
        f"iterations={len(result.history)} stop={result.reason}"
    )
    return 0


def cmd_lms(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    if args.signal == "ar1":
        spec = SignalSpec(family="ar1", rho=args.rho)
    elif args.signal == "ar2":
        spec = SignalSpec(family="ar2", rho1=args.rho1, rho2=args.rho2)
    else:
        spec = SignalSpec(family="white")

    transform = None
    if args.transform == "dct":
        transform = dct_matrix(args.taps).T
    elif args.transform == "precog":
        R = spec.autocorr(args.taps)
        hp = _hyperparams_from_args(args, seed)
        topo = _topology_from_args(args, args.taps)
        transform = optimize(R, topo, hp).U

    cfg = FilterConfig(taps=args.taps, step=args.step, transform=transform)
    rng = np.random.default_rng(seed)
    plant = rng.standard_normal(args.taps)
    plant /= np.linalg.norm(plant)
    trace = system_id_experiment(plant, spec, args.noise_db, cfg, args.run_len, seed)
    trace.to_csv(args.out)
    hit = trace.iterations_to_threshold(-20.0)
    print(
        f"lms transform={args.transform} signal={args.signal} "
        f"iterations_to_-20dB={hit if hit is not None else 'never'} -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precog",
        description="Learned unitary split preconditioners and classical baselines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a test matrix file")
    _add_matrix_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True, help="output matrix file")
    p_gen.add_argument("--config", default=None, help="flat key=value config file")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="benchmark preconditioners to CSV")
    _add_matrix_flags(p_bench, with_files=True)
    _add_hyper_flags(p_bench)
    p_bench.add_argument("--methods", default=",".join(METHOD_NAMES),
                         help="comma-separated method list")
    p_bench.add_argument("--omega", type=float, default=DEFAULT_OMEGA,
                         help="relaxation factor for sor/ssor")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--seeds", default=None,
                         help="comma-separated seed sweep (overrides --seed)")
    p_bench.add_argument("--timing", action="store_true",
                         help="record wall-clock times (breaks byte determinism)")
    p_bench.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_bench.add_argument("--config", default=None, help="flat key=value config file")
    p_bench.set_defaults(func=cmd_bench)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--n", type=int, default=6, choices=range(2, GRADCHECK_MAX_N + 1),
                        metavar=f"[2-{GRADCHECK_MAX_N}]",
                        help="dimension (small: the oracle is O(n^4) eigensolves)")
    p_grad.add_argument("--topology", choices=["banded", "full"], default="banded")
    p_grad.add_argument("--band", type=int, default=2)
    p_grad.add_argument("--seed", type=int, default=None)
    p_grad.add_argument("--mode", choices=["perturbation", "paper-chain"],
                        default="perturbation")
    p_grad.add_argument("--config", default=None, help="flat key=value config file")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_pre = sub.add_parser("precondition", help="learn a transform for one matrix")
    _add_matrix_flags(p_pre)
    _add_hyper_flags(p_pre)
    p_pre.add_argument("--matrix", default=None, help="matrix text file")
    p_pre.add_argument("--seed", type=int, default=None)
    p_pre.add_argument("--out-u", required=True, help="output file for the learned U")
    p_pre.add_argument("--history", default=None, help="optional history CSV")
    p_pre.add_argument("--config", default=None, help="flat key=value config file")
    p_pre.set_defaults(func=cmd_precondition)

    p_lms = sub.add_parser("lms", help="system-identification LMS run")
    _add_hyper_flags(p_lms)
    p_lms.add_argument("--taps", type=int, default=16)
    p_lms.add_argument("--step", type=float, default=0.01)
    p_lms.add_argument("--signal", choices=["white", "ar1", "ar2"], default="ar1")
    p_lms.add_argument("--rho", type=float, default=0.9)
    p_lms.add_argument("--rho1", type=float, default=0.9)
    p_lms.add_argument("--rho2", type=float, default=0.5)
    p_lms.add_argument("--noise-db", type=float, default=30.0)
    p_lms.add_argument("--run-len", type=int, default=20000)
    p_lms.add_argument("--transform", choices=["none", "dct", "precog"], default="none")
    p_lms.add_argument("--seed", type=int, default=None)
    p_lms.add_argument("--out", required=True, help="output trace CSV")
    p_lms.add_argument("--config", default=None, help="flat key=value config file")
    p_lms.set_defaults(func=cmd_lms)
    return parser


def _load_config(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PrecogError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip().replace("_", "-")] = value.strip()
    return pairs


def _inject_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Expand --config into flags placed before explicit ones (flags win)."""
    if "--config" not in argv or not argv:
        return argv
    if argv[-1] == "--config":
        raise UsageError("--config needs a file path")
    pairs = _load_config(argv[argv.index("--config") + 1])
    command = argv[0]
    # find the matching subparser to learn which options are boolean flags
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = sub_actions[0].choices.get(command) if sub_actions else None
    store_true = set()
    if subparser is not None:
        for action in subparser._actions:
            if isinstance(action, argparse._StoreTrueAction):
                store_true.update(s.lstrip("-") for s in action.option_strings)
    injected: list[str] = []
    for key, value in pairs.items():
        if key in store_true:
            if value.lower() in ("1", "true", "yes", "on"):
                injected.append(f"--{key}")
        else:
            injected.extend([f"--{key}", value])
    return [command] + injected + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv, parser))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (PrecogError, UsageError, OSError) as exc:  # OSError: a named file is unusable
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PrecogError) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

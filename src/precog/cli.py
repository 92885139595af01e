"""Command-line interface.

Subcommands: gen (matrix files), bench (multi-method condition-ratio CSV),
gradcheck (finite-difference certification), precondition (single-matrix
learning run), lms (system-identification trace over one or more seeds).

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Reports are
deterministic for a fixed config and seed; wall-clock timing is opt-in
(--timing) so that the default CSV is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import os
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    DEFAULT_OMEGA,
    METHOD_NAMES,
    baseline_cond,
    check_omega,
    condition_ratio,
    dct_matrix,
    none_cond,
)
from .errors import PrecogError, _check_count, _check_seed
from .graph import WeightedGraph, banded_topology
from .learn import HyperParams, cost_E, cost_EN, grad_E_wrt_U, grad_EN_wrt_w, optimize
from .matgen import (
    DEFAULT_SHIFT_MARGIN,
    FAMILIES,
    MatrixSpec,
    SignalSpec,
    _param_text,
    density,
    random_pd,
    save_matrix,
)
from .spectral import cond_spd
from .tdlms import FilterConfig, check_run, system_id_experiment

BENCH_HEADER = (
    "matrix_id,n,family,params,method,cond_raw,cond_method,condition_ratio,"
    "log10_ratio,iterations,wall_ms,seed,gradient_mode,status,tool_version"
)

GRADCHECK_MAX_N = 10
GRADCHECK_U_TOL = 1e-5
GRADCHECK_W_TOL = 1e-3


class UsageError(Exception):
    """Bad command line or environment; main reports it and exits 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError instead of printing usage and exiting."""

    def error(self, message: str):
        raise UsageError(message)


def _write_csv(path: str | None, header: str, rows) -> None:
    """Write header and rows as CSV to path, or to stdout when path is empty.

    A None cell is empty, a float (numpy's too) is repr(float(x)), anything else str(x);
    csv quotes a cell that holds a comma, a quote or a newline.
    """
    buf = io.StringIO()
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(
        ["" if x is None else repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
         for x in row] for row in rows)
    if path:
        Path(path).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _attempt(fn, *args):
    """(fn(*args), "ok"), or (None, its class name) when fn raises a PrecogError."""
    try:
        return fn(*args), "ok"
    except PrecogError as exc:
        return None, type(exc).__name__


def _list_of(kind):
    """Argument type: a comma-separated list of kind (int or float) values."""
    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}") from None
    return parse


def _switch(text: str) -> bool:
    """Argument type: on (1, true, yes, on) or off (0, false, no, off), in any case."""
    if (word := text.lower()) in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        return word in ("1", "true", "yes", "on")
    raise argparse.ArgumentTypeError(f"expected on/off (1/true/yes/on or 0/false/no/off), "
                                     f"got {text!r}")


def _seeds(args: argparse.Namespace) -> list[int]:
    """--seed, else PRECOG_SEED, else 0; each in [0, 2**64), and only bench and lms take a list."""
    source = "--seed" if args.seed is not None else "PRECOG_SEED"
    try:
        seeds = args.seed or _list_of(int)(os.environ.get("PRECOG_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"PRECOG_SEED: {exc}") from None
    if len(seeds) > 1 and args.command not in ("bench", "lms"):
        raise UsageError(f"{args.command} takes one seed, got {len(seeds)} from {source}")
    for seed in seeds:
        try:
            _check_seed(seed)
        except PrecogError as exc:
            raise UsageError(f"{source}: {exc}") from None
    return seeds


def _add_matrix_flags(p: argparse.ArgumentParser, with_files: bool = False) -> None:
    if with_files:
        p.add_argument("--matrix", action="append", default=[], metavar="PATH",
                       help="matrix text file (bench: repeatable)")
    p.add_argument("--family", choices=list(FAMILIES),
                   help="generate a matrix family instead of reading files")
    p.add_argument("--n", type=int, default=8, help="matrix dimension")
    # a flag per FAMILIES parameter name; bench runs every combination of the lists
    p.add_argument("--alpha", type=_list_of(float), default=[0.0], help="hilbert regularizer")
    p.add_argument("--reg", type=_list_of(float), default=[1e-3], help="random-pd regularizer")
    p.add_argument("--density", type=_list_of(float), default=[0.5], help="sparse-pd density")
    p.add_argument("--shift-margin", type=_list_of(float), default=[DEFAULT_SHIFT_MARGIN],
                   help="sparse-pd diagonal margin")
    p.add_argument("--rho", type=_list_of(float), default=[0.9], help="ar1 correlation factor")
    p.add_argument("--rho1", type=_list_of(float), default=[0.9], help="ar2 first pole")
    p.add_argument("--rho2", type=_list_of(float), default=[0.5], help="ar2 second pole")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    hp = HyperParams()
    p.add_argument("--mu", type=float, default=hp.mu, help="gradient step size")
    p.add_argument("--beta", type=float, default=hp.beta, help="weight-norm regularizer")
    p.add_argument("--eps1", type=float, default=hp.eps1,
                   help="diagonal-term weight; acts only through eps1^2 + eps2^2")
    p.add_argument("--eps2", type=float, default=hp.eps2,
                   help="diagonal-term weight, below 1; acts only through eps1^2 + eps2^2")
    p.add_argument("--max-iter", type=int, default=hp.max_iter, help="iteration budget")
    p.add_argument("--tol", type=float, default=hp.tol, help="cost-change stop threshold")
    _add_topology_flags(p, "full")


def _add_topology_flags(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--topology", choices=["banded", "full"], default=default)
    p.add_argument("--band", type=int, default=2, help="band width for banded topology")


def _family_specs(args: argparse.Namespace, seed: int) -> list[MatrixSpec]:
    """One spec per combination of the family's flag values."""
    _, names, _ = FAMILIES[args.family]
    return [
        MatrixSpec(family=args.family, n=args.n, params=dict(zip(names, values)), seed=seed)
        for values in itertools.product(*(getattr(args, k) for k in names))
    ]


def _matrix_specs(args: argparse.Namespace, seeds: list[int]) -> list[tuple[MatrixSpec, int]]:
    """(spec, seed) for every --matrix file, then every family combination, seed by seed."""
    files = [MatrixSpec(family="file", path=path) for path in getattr(args, "matrix", ())]
    return [(spec, seed) for seed in seeds
            for spec in files + ([] if args.family is None else _family_specs(args, seed))]


def _one_matrix_spec(args: argparse.Namespace, seed: int) -> MatrixSpec:
    """The single matrix of gen or precondition: one --matrix, or one value per family flag."""
    for name in itertools.chain.from_iterable(names for _, names, _ in FAMILIES.values()):
        if len(values := getattr(args, name)) > 1:
            raise UsageError(f"{args.command} takes one value per family flag, "
                             f"got {len(values)} for --{name.replace('_', '-')}")
    specs = _matrix_specs(args, [seed])
    if not specs:
        source = "--matrix or --family" if "matrix" in args else "--family"
        raise UsageError(f"{args.command} needs {source}")
    if len(specs) > 1:
        raise UsageError(f"{args.command} takes one matrix, got {len(specs)}")
    return specs[0][0]


def _from_flags(make, *a, from_file: bool = False, **kw):
    """make(*a, **kw); a PrecogError it raises is a usage error unless a file set the value."""
    try:
        return make(*a, **kw)
    except PrecogError as exc:
        if from_file:  # exit 1, or a bench status row
            raise
        raise UsageError(str(exc)) from None


def _build_matrix(spec: MatrixSpec) -> np.ndarray:
    return _from_flags(spec.build, from_file=spec.family == "file")


def _hyperparams_from_args(args: argparse.Namespace, seed: int) -> HyperParams:
    """HyperParams from the learning flags, each named after the field it sets; checks --band."""
    if args.topology == "banded":  # before any topology is built: a flag error wins over a file's
        _from_flags(_check_count, "band", args.band)
    flags = {f.name: getattr(args, f.name) for f in fields(HyperParams) if f.name in args}
    return _from_flags(HyperParams, **flags | {"seed": seed})


def _topology(args: argparse.Namespace, n: int, from_file: bool = False):
    band = args.band if args.topology == "banded" else n - 1  # full is banded at n - 1
    return _from_flags(banded_topology, n, band, from_file=from_file)


def _learn(args: argparse.Namespace, R: np.ndarray, hp: HyperParams, from_file: bool = False):
    """optimize on the --topology graph over R's n; a file too small for it is the file's fault."""
    return optimize(R, _topology(args, R.shape[0], from_file), hp)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _one_matrix_spec(args, args.seed[0])
    M = _build_matrix(spec)
    cond = cond_spd(M)  # a matrix that is not SPD fails before anything is written
    save_matrix(M, args.out)
    extra = f" density={density(M)!r}" if args.family == "sparse-pd" else ""
    print(f"{spec.label()} n={M.shape[0]} cond={cond!r}{extra} -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    _from_flags(check_omega, args.omega)
    methods = sorted({m.strip() for m in args.methods.split(",") if m.strip()} | {"precog"})
    for m in methods:
        if m not in METHOD_NAMES:
            raise UsageError(f"unknown method {m!r}; choose from {METHOD_NAMES}")

    specs = _matrix_specs(args, args.seed)
    if not specs:
        raise UsageError("bench needs --matrix and/or --family")
    ids = [spec.label() if len(args.seed) == 1 else f"{spec.label()}#s{seed}"
           for spec, seed in specs]
    for matrix_id, count in Counter(ids).items():
        if count > 1:
            raise UsageError(f"{count} bench matrices share the matrix_id {matrix_id!r}")
    # every matrix is built before any work, so a bad flag or file fails fast
    matrices = sorted([(matrix_id, spec, seed, _build_matrix(spec))
                       for matrix_id, (spec, seed) in zip(ids, specs)], key=lambda m: m[0])
    hps = {seed: _hyperparams_from_args(args, seed) for seed in args.seed}

    rows = []
    n_failed = 0
    for matrix_id, spec, seed, R in matrices:
        params_str = ";".join(f"{k}={_param_text(v)}" for k, v in sorted(spec.params.items()))

        # a matrix that fails (e.g. not SPD) gives every one of its rows the status; a file
        # too small for a topology, only its precog row
        cond_raw, precog_status = _attempt(cond_spd, R)
        result = precog_cond = precog_iters = None
        t0 = time.perf_counter()
        if cond_raw is not None:
            result, precog_status = _attempt(_learn, args, R, hps[seed], spec.family == "file")
        precog_ms = 1000.0 * (time.perf_counter() - t0)
        if result is not None:
            precog_cond, precog_iters = result.best_cond, len(result.history)

        for method in methods:
            t0 = time.perf_counter()
            if method == "precog" or cond_raw is None:
                cond_method, status, iters = precog_cond, precog_status, precog_iters
            else:
                (cond_method, status), iters = _attempt(baseline_cond, method, R, args.omega), None
            n_failed += status != "ok"
            wall_ms = precog_ms if method == "precog" else 1000.0 * (time.perf_counter() - t0)
            ratio = log_ratio = None
            if cond_method is not None and precog_cond is not None:
                ratio = condition_ratio(cond_method, precog_cond)
                log_ratio = np.log10(ratio)
            rows.append([
                matrix_id, len(R), spec.family, params_str, method, cond_raw, cond_method, ratio,
                log_ratio, iters, wall_ms if args.timing else None, seed, hps[seed].gradient_mode,
                status, __version__,
            ])

    _write_csv(args.out, BENCH_HEADER, rows)
    return 1 if n_failed == len(rows) else 0


def _central_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of the scalar f over every entry of x."""
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        out[idx] = (f(xp) - f(xm)) / (2 * h)
    return out


def cmd_gradcheck(args: argparse.Namespace) -> int:
    seed = args.seed[0]
    n = args.n
    rng = np.random.default_rng(seed)
    R = random_pd(n, seed, 0.1)
    topo = _topology(args, n)
    hp = HyperParams(seed=seed)  # the seed was range-checked before dispatch
    # a degenerate draw (probability about 0) raises DegenerateSpectrumError in grad_EN_wrt_w
    w = rng.standard_normal(topo.n_edges)
    g = WeightedGraph(topo, w)

    worst_u = 0.0
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Ga = grad_E_wrt_U(R, Q, hp.eps1, hp.eps2)
        Gf = _central_diff(lambda V: cost_E(R, V, hp.eps1, hp.eps2), Q)
        worst_u = max(worst_u, float(np.linalg.norm(Ga - Gf) / np.linalg.norm(Gf)))

    fd_w = _central_diff(lambda v: cost_EN(WeightedGraph(topo, v), R, hp), w)
    an_w = grad_EN_wrt_w(g, R, hp)
    err_w = float(np.linalg.norm(an_w - fd_w) / np.linalg.norm(fd_w))

    print(f"gradcheck n={n} topology={args.topology} seed={seed}")
    print(f"canonical dE/dU vs finite differences: rel err = {worst_u:.3e}")
    print(f"perturbation dEN/dw vs finite differences: rel err = {err_w:.3e}")
    ok = worst_u <= GRADCHECK_U_TOL and err_w <= GRADCHECK_W_TOL
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_precondition(args: argparse.Namespace) -> int:
    if args.history and Path(args.history).resolve() == Path(args.out_u).resolve():
        raise UsageError(f"--history and --out-u name one file: {args.history}")
    seed = args.seed[0]
    spec = _one_matrix_spec(args, seed)
    R = _build_matrix(spec)
    result = _learn(args, R, _hyperparams_from_args(args, seed), spec.family == "file")
    baseline = none_cond(R)
    save_matrix(result.U, args.out_u)
    if args.history:
        try:
            _write_csv(args.history, "iteration,cost,split_cond,grad_norm",
                       [(r.t, r.cost, r.split_cond, r.grad_norm) for r in result.history])
        except OSError:  # a failed run writes no output file
            Path(args.out_u).unlink()
            raise
    print(
        f"{spec.label()}: power-normalized cond={baseline!r} learned cond={result.best_cond!r} "
        f"iterations={len(result.history)} stop={result.reason}"
    )
    return 0


def cmd_lms(args: argparse.Namespace) -> int:
    if repeated := [seed for seed, count in Counter(args.seed).items() if count > 1]:
        raise UsageError(f"lms seed {repeated[0]} is listed more than once")
    spec = _from_flags(SignalSpec, args.signal, rho=args.rho, rho1=args.rho1, rho2=args.rho2)
    # every flag is checked before a transform is learned or the filter runs
    cfg = _from_flags(FilterConfig, taps=args.taps, step=args.step)
    R = _from_flags(spec.autocorr, args.taps)
    _from_flags(check_run, args.run_len, args.noise_db)
    hp = _hyperparams_from_args(args, args.seed[0])  # whatever the transform

    if args.transform == "dct":
        cfg = replace(cfg, transform=dct_matrix(args.taps).T)
    elif args.transform == "precog":  # learned once, from the first seed's start
        cfg = replace(cfg, transform=_learn(args, R, hp).U)

    first, hits = None, []
    for seed in args.seed:  # each seed draws its own plant and excitation
        rng = np.random.default_rng(seed)
        plant = rng.standard_normal(args.taps)
        plant /= np.linalg.norm(plant)
        trace = system_id_experiment(plant, spec, args.noise_db, cfg, args.run_len, seed)
        first = trace if first is None else first
        hits.append(trace.iterations_to_threshold(-20.0))
    # written once every seed has run, so a failed run writes nothing
    _write_csv(args.out, "k,e2,misalignment_db",
               zip(itertools.count(), first.e2, first.misalignment_db))
    head = f"lms transform={args.transform} signal={args.signal}"
    if len(hits) == 1:
        print(f"{head} iterations_to_-20dB={hits[0] if hits[0] is not None else 'never'} "
              f"-> {args.out}")
    else:  # a seed that never reaches -20 dB counts as run_len + 1
        v = [args.run_len + 1 if hit is None else hit for hit in hits]
        med = str(np.median(v)).removesuffix(".0")  # a median of counts is whole or ends in .5
        print(f"{head} seeds={len(v)} median_iterations_to_-20dB={med} "
              f"(min {min(v)}, max {max(v)}) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="precog",
        description="Learned unitary split preconditioners and classical baselines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # read by _expand_config before this parser runs; declared here for --help
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value config file (repeatable; flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a test matrix file")
    _add_matrix_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output matrix file")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="benchmark preconditioners to CSV")
    _add_matrix_flags(p_bench, with_files=True)
    _add_hyper_flags(p_bench)
    p_bench.add_argument("--methods", default=",".join(METHOD_NAMES),
                         help="comma-separated method list")
    p_bench.add_argument("--omega", type=float, default=DEFAULT_OMEGA,
                         help="relaxation factor for sor/ssor")
    p_bench.add_argument("--timing", nargs="?", const=True, default=False, type=_switch,
                         help="record wall-clock times (breaks byte determinism)")
    p_bench.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--n", type=int, default=6, choices=range(2, GRADCHECK_MAX_N + 1),
                        metavar=f"[2-{GRADCHECK_MAX_N}]",
                        help="dimension (small: the oracle is O(n^4) eigensolves)")
    _add_topology_flags(p_grad, "banded")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_pre = sub.add_parser("precondition", help="learn a transform for one matrix")
    _add_matrix_flags(p_pre, with_files=True)
    _add_hyper_flags(p_pre)
    p_pre.add_argument("--out-u", required=True, help="output file for the learned U")
    p_pre.add_argument("--history", default=None, help="optional history CSV")
    p_pre.set_defaults(func=cmd_precondition)

    p_lms = sub.add_parser("lms", help="system-identification LMS runs (first seed's trace)")
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
    p_lms.add_argument("--out", required=True, help="output trace CSV")
    p_lms.set_defaults(func=cmd_lms)
    for p in sub.choices.values():
        p.add_argument("--seed", type=_list_of(int), default=None,
                       help="seed (bench, lms: a comma-separated list); "
                            "default $PRECOG_SEED, else 0")
    return parser


def _config_flags(path: str) -> list[str]:
    """Each `key = value` line of a config file as the flag --key=value, in file order."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}") from None
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=' in {path}: {raw!r}")
        key, value = line.split("=", 1)
        if not key.strip():
            raise UsageError(f"config line without a key in {path}: {raw!r}")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _expand_config(argv: list[str]) -> list[str]:
    """Splice every --config file's flags in after the command, before the explicit ones."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config", action="append", default=[])
    known, rest = pre.parse_known_args(argv)
    return rest[:1] + [flag for path in known.config for flag in _config_flags(path)] + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_expand_config(argv))
        args.seed = _seeds(args)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except MemoryError as exc:  # an array too large to allocate, e.g. gen --n 100000
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (PrecogError, UsageError, OSError) as exc:  # OSError: a named file is unusable
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PrecogError) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

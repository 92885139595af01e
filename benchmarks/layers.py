"""Traced run: spans around the benchmark's calls into precog, and layer replays.

The per-layer numbers come from replays through precog's public functions,
never from code inside ``src/precog``:

* every ``bench`` case is replayed as its ``optimize`` call plus the eight
  baseline cells, so the bench's own time is the rest;
* the first iterations of every ``optimize`` call are replayed with that
  call's seed and the documented update, and iteration 0 must equal the
  call's ``history[0]`` bit for bit;
* one TDLMS probe, identical on every workload, times single filter steps.
"""

from __future__ import annotations

import statistics

import numpy as np

from harness import Checks, RunResult, Tracer
from precog.baselines import (
    dct_matrix,
    dft_split_cond,
    gauss_seidel_precond,
    ilu0_precond,
    jacobi_precond,
    none_cond,
    sor_precond,
    ssor_precond,
)
from precog.errors import PrecogError
from precog.graph import WeightedGraph, laplacian
from precog.learn import cost_E, grad_EN_wrt_w, optimize
from precog.matgen import SignalSpec
from precog.spectral import canonical_sign, split_preconditioned_cond, sym_eig
from precog.tdlms import FilterConfig, FilterState, lms_step, system_id_experiment, tdlms_step
from workloads import (
    TDLMS_RHO,
    TDLMS_RUN_LEN,
    TDLMS_SNR_DB,
    TDLMS_STEP,
    TDLMS_TAPS,
    as_float,
    best_index,
    check_bench_csv,
    check_learned,
    run_bench,
)

REPLAY_ITERS = 20
STEP_BLOCK = 4000
MATRIX_GENERATORS = (
    "matgen.ar1_autocorr", "matgen.hilbert", "matgen.random_pd", "matgen.random_sparse_pd",
)
LEFT = ("jacobi", "gauss-seidel", "sor", "ssor")
BASELINE_CELLS = {
    "none": none_cond,
    "dct": lambda R: split_preconditioned_cond(R, dct_matrix(R.shape[0]).T),
    "dft": dft_split_cond,
    "jacobi": lambda R: jacobi_precond(R).preconditioned_cond(R),
    "gauss-seidel": lambda R: gauss_seidel_precond(R).preconditioned_cond(R),
    "sor": lambda R: sor_precond(R).preconditioned_cond(R),
    "ssor": lambda R: ssor_precond(R).preconditioned_cond(R),
    "ilu0": lambda R: ilu0_precond(R).preconditioned_cond(R),
}
# per-iteration layers of optimize, in seconds, from one replay
LEARN_LAYERS = ("laplacian", "sym_eig", "canonical_sign", "split_cond", "cost_E", "grad_self")


def replay_bench(tr: Tracer, wl, inp, traced, checks: Checks) -> tuple[list, list]:
    """Replay each bench case; return per-case cell times and bench self times."""
    cells_s, self_s = [], []
    for i, case in enumerate(wl.bench_cases(inp)):
        if wl.pass_runs_bench:
            bench_s = traced.job_s[i]
            want_cond = traced.learned[i].precog_cond
            want_iters = traced.learned[i].iters
        else:
            rc, text = tr.call("cli.main", run_bench, case.argv)
            bench_s = tr.last_s
            precog = check_bench_csv(case.label, rc, text, checks).get("precog", {})
            want_cond = as_float(precog.get("cond_method"))
            want_iters = as_float(precog.get("iterations"))
        res = tr.call("learn.optimize", optimize, case.R, case.topology, case.hp)
        opt_s = tr.last_s
        cond = tr.call("spectral.split_preconditioned_cond", split_preconditioned_cond,
                       case.R, res.U)
        score_s = tr.last_s
        checks.add(f"{case.label}: replayed optimize matches bench",
                   cond == want_cond and len(res.history) == want_iters)
        cells = {}
        for method, fn in BASELINE_CELLS.items():
            tr.call(f"baselines.{method}", fn, case.R)
            cells[method] = tr.last_s
        cells_s.append(cells)
        self_s.append(bench_s - opt_s - score_s - sum(cells.values()))
        if wl.pass_runs_bench:
            x = traced.learned[i]
            x.result, x.opt_s, x.best_iter = res, opt_s, best_index(res)
    return cells_s, self_s


def replay_learning(tr: Tracer, R, topo, hp, res, label: str, checks: Checks):
    """Median seconds per layer over the first iterations; None if iteration 0 jittered."""
    w = np.random.default_rng(hp.seed).standard_normal(topo.n_edges)
    times = {k: [] for k in LEARN_LAYERS}
    equal = None
    for it in range(min(REPLAY_ITERS, len(res.history))):
        g = WeightedGraph(topo, w)
        L = tr.call("graph.laplacian", laplacian, g)
        times["laplacian"].append(tr.last_s)
        sp = tr.call("spectral.sym_eig", sym_eig, L)
        times["sym_eig"].append(tr.last_s)
        V = np.linalg.eigh(L)[1]
        tr.call("spectral.canonical_sign", canonical_sign, V)
        times["canonical_sign"].append(tr.last_s)
        cond = tr.call("spectral.split_preconditioned_cond", split_preconditioned_cond, R, sp.U)
        times["split_cond"].append(tr.last_s)
        cost = tr.call("learn.cost_E", cost_E, R, sp.U, hp.eps1, hp.eps2)
        times["cost_E"].append(tr.last_s)
        cost = cost + hp.beta * (float(w @ w) - 1.0)
        try:
            grad = tr.call("learn.grad_EN_wrt_w", grad_EN_wrt_w, g, R, hp)
        except PrecogError:
            break  # degenerate spectrum on the replayed path: stop timing this call
        times["grad_self"].append(tr.last_s - times["laplacian"][-1] - times["sym_eig"][-1])
        if it == 0 and res.history[0].t == 0:
            rec = res.history[0]
            equal = checks.add(
                f"{label}: iteration-0 replay equals history[0]",
                cond == rec.split_cond and cost == rec.cost
                and float(np.linalg.norm(grad)) == rec.grad_norm,
            )
        # documented update w <- w (1 - 2 beta) - mu * (gradient without 2 beta w)
        w = w * (1.0 - 2.0 * hp.beta) - hp.mu * (grad - 2.0 * hp.beta * w)
    medians = {k: statistics.median(v) for k, v in times.items() if v}
    return medians, equal


def replay_tdlms(tr: Tracer, seed: int, checks: Checks) -> list[float]:
    """Time single TDLMS steps; return the seconds of two system-identification runs."""
    spec = SignalSpec("ar1", rho=TDLMS_RHO)
    plant = np.random.default_rng(seed).standard_normal(TDLMS_TAPS)
    plant /= np.linalg.norm(plant)
    x = tr.call("matgen.SignalSpec.generate", spec.generate, TDLMS_RUN_LEN + TDLMS_TAPS, seed)
    windows = np.lib.stride_tricks.sliding_window_view(x, TDLMS_TAPS)[:STEP_BLOCK, ::-1]
    d = windows @ plant
    plain = FilterConfig(taps=TDLMS_TAPS, step=TDLMS_STEP)
    dct = FilterConfig(taps=TDLMS_TAPS, step=TDLMS_STEP, transform=dct_matrix(TDLMS_TAPS).T)

    state = FilterState(plain)
    with tr.block("tdlms.lms_step", STEP_BLOCK):
        for k in range(STEP_BLOCK):
            state, _ = lms_step(state, windows[k], d[k])
    state = FilterState(dct)
    with tr.block("tdlms.tdlms_step", STEP_BLOCK):
        for k in range(STEP_BLOCK):
            state, _ = tdlms_step(state, windows[k], d[k], dct)
    with tr.block("tdlms.time_domain_weights", STEP_BLOCK):
        for _ in range(STEP_BLOCK):
            state.time_domain_weights()
    sysid_s = []
    for name, cfg in (("plain", plain), ("dct", dct)):
        trace = tr.call("tdlms.system_id_experiment", system_id_experiment,
                        plant, spec, TDLMS_SNR_DB, cfg, TDLMS_RUN_LEN, seed)
        sysid_s.append(tr.last_s)
        checks.add(f"tdlms probe/{name}: misalignment finite",
                   bool(np.all(np.isfinite(trace.misalignment))))
    return sysid_s


def weighted(per_call: list[tuple[dict, int]], key: str) -> float:
    """Per-iteration mean over calls of each call's median, weighted by its iterations."""
    pairs = [(m[key], n) for m, n in per_call if key in m]
    return sum(v * n for v, n in pairs) / sum(n for _, n in pairs)


def mean_ms(values) -> float:
    return 1e3 * statistics.fmean(values)


def traced_run(wl, seed: int, run_id: str) -> RunResult:
    checks = Checks()
    inp = wl.generate(seed)
    untraced = wl.run_pass(inp)
    wl.check_pass(inp, untraced, checks)

    tr = Tracer(run_id)
    inp = tr.call("workload.generate", wl.generate, seed, tr)
    traced = tr.call("workload.pass", wl.run_pass, inp, tr)
    wl.check_pass(inp, traced, checks)

    cells, bench_self = tr.call("replay.bench", replay_bench, tr, wl, inp, traced, checks)

    per_call, n_equal, n_checked = [], 0, 0
    for x, (R, topo, hp) in zip(traced.learned, wl.learn_inputs(inp)):
        check_learned(x, R, checks)
        medians, equal = tr.call("replay.learn", replay_learning,
                                 tr, R, topo, hp, x.result, x.label, checks)
        per_call.append((medians, x.iters))
        n_equal += bool(equal)
        n_checked += equal is not None
    sysid_s = tr.call("replay.tdlms", replay_tdlms, tr, seed, checks)

    layer_us = {k: 1e6 * weighted(per_call, k) for k in LEARN_LAYERS}
    opt_us = 1e6 * sum(x.opt_s for x in traced.learned) / sum(x.iters for x in traced.learned)
    metrics = {
        "graph.laplacian_us": layer_us["laplacian"],
        "spectral.sym_eig_us": layer_us["sym_eig"],
        "spectral.canonical_sign_us": layer_us["canonical_sign"],
        "spectral.split_cond_us": layer_us["split_cond"],
        "learn.grad_self_us": layer_us["grad_self"],
        "learn.cost_E_us": layer_us["cost_E"],
        # sym_eig already contains canonical_sign
        "learn.iter_residual_us": opt_us - sum(
            layer_us[k] for k in LEARN_LAYERS if k != "canonical_sign"),
        "learn.iters": float(sum(x.iters for x in traced.learned)),
        "learn.best_iter_frac": statistics.fmean(
            x.best_iter / x.iters for x in traced.learned),
        "learn.replay_iter0_equal": float(n_equal),
        "baselines.ilu0_ms": mean_ms(c["ilu0"] for c in cells),
        "baselines.left_ms": mean_ms(sum(c[m] for m in LEFT) for c in cells),
        "baselines.dft_ms": mean_ms(c["dft"] for c in cells),
        "baselines.dct_ms": mean_ms(c["dct"] for c in cells),
        "matgen.matrix_ms": mean_ms(
            s["end"] - s["start"] for s in tr.spans if s["name"] in MATRIX_GENERATORS),
        "matgen.signal_ms": mean_ms(tr.per_op_s("matgen.SignalSpec.generate")),
        "tdlms.lms_step_us": 1e6 * statistics.fmean(tr.per_op_s("tdlms.lms_step")),
        "tdlms.tdlms_step_us": 1e6 * statistics.fmean(tr.per_op_s("tdlms.tdlms_step")),
        "tdlms.time_domain_weights_us": 1e6 * statistics.fmean(
            tr.per_op_s("tdlms.time_domain_weights")),
        "tdlms.sysid_ms": mean_ms(sysid_s),
        "cli.bench_self_ms": mean_ms(bench_self),
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }
    units = {"learn.iters": "count", "learn.best_iter_frac": "fraction",
             "learn.replay_iter0_equal": "count", "trace.overhead_frac": "fraction"}
    report = {name: (value, units.get(name, name.rsplit("_", 1)[-1]))
              for name, value in metrics.items()}
    report["learn.optimize_us_per_iter"] = (opt_us, "us")
    report["learn.replay_iter0_checked"] = (float(n_checked), "count")
    report["wall_s.untraced"] = (untraced.wall_s, "s")
    report["wall_s.traced"] = (traced.wall_s, "s")
    report["failed_frac"] = (checks.failed / checks.attempted, "fraction")
    return RunResult(metrics=metrics, report=report,
                     quality=[x.quality_row() for x in traced.learned],
                     checks=checks, spans=tr.spans)

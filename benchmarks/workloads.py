"""The benchmark workloads: seeded inputs, a fixed job list, output checks.

Every workload learns at least one transform with ``optimize``, so the
learning metrics are defined on each of them:

* markov-banded: the paper's headline comparison through ``precog bench``
  on AR(1) autocorrelations, all nine methods.
* restarts-full: 25 independent ``optimize`` runs on small matrices over
  the full topology (acceptance criterion 3).
* tdlms-sysid: plain, DCT and learned-transform LMS identifying ten FIR
  plants (acceptance criterion 6).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from harness import NULL_TRACER, CalibratedClock, Checks, RunResult
from precog import cli
from precog.baselines import METHOD_NAMES, dct_matrix, none_cond
from precog.graph import Topology, banded_topology, full_topology
from precog.learn import HyperParams, PrecogResult, optimize
from precog.matgen import (
    SignalSpec,
    ar1_autocorr,
    density,
    hilbert,
    random_pd,
    random_sparse_pd,
)
from precog.spectral import ORTHONORMALITY_TOL, orthonormality_error, split_preconditioned_cond
from precog.tdlms import FilterConfig, system_id_experiment

SETUP_REPEATS = 9
MISALIGNMENT_DB = -20.0
TDLMS_TAPS = 16
TDLMS_RHO = 0.9
TDLMS_SNR_DB = 30.0
TDLMS_STEP = 0.01
TDLMS_RUN_LEN = 20_000
TDLMS_PLANTS = 10
# criterion 6 and scripts/lms_convergence.py learn the TDLMS transform with seed 0
TDLMS_LEARN_SEED = 0
TDLMS_FILTERS = ("plain", "dct", "precog")


@dataclass(frozen=True)
class BenchCase:
    """One ``precog bench`` call and the inputs its ``optimize`` call sees."""

    label: str
    argv: tuple[str, ...]
    R: np.ndarray
    topology: Topology
    hp: HyperParams


@dataclass
class Learned:
    """One learned transform and how it scores against its matrix."""

    label: str
    n: int
    precog_cond: float
    iters: int
    dct_cond: float = math.nan
    none_cond: float = math.nan
    best_iter: int | None = None
    ilu0_cond: float | None = None
    ilu0_exact_lu: bool = False
    result: PrecogResult | None = None
    opt_s: float = 0.0

    def quality_row(self) -> dict:
        row = {
            "matrix": self.label, "n": self.n, "precog_cond": self.precog_cond,
            "dct_cond": self.dct_cond, "precog_over_dct": self.precog_cond / self.dct_cond,
            "none_cond": self.none_cond, "iterations": self.iters,
            "best_iteration": self.best_iter,
        }
        if self.ilu0_cond is not None:
            row["ilu0_cond"] = self.ilu0_cond
            if self.ilu0_exact_lu:
                row["ilu0_note"] = "dense input: ILU(0) is an exact LU, not a competitor"
        return row


@dataclass
class Pass:
    """One run of a workload's fixed job list."""

    wall_s: float = 0.0
    # seconds of each job, of each optimize call, of each system identification
    job_s: list[float] = field(default_factory=list)
    opt_s: list[float] = field(default_factory=list)
    sysid_s: list[float] = field(default_factory=list)
    opt_iters: int = 0
    sysid_steps: int = 0
    learned: list[Learned] = field(default_factory=list)
    hits: dict[str, list[int]] = field(default_factory=dict)
    # raw outputs, dropped once checked
    outputs: list = field(default_factory=list)

    def quality_key(self) -> tuple:
        return tuple((x.label, x.precog_cond, x.iters) for x in self.learned) + tuple(
            (k, tuple(v)) for k, v in sorted(self.hits.items())
        )


def bench_argv(family: list[str], topology: list[str], seed: int,
               max_iter: int | None = None) -> tuple[str, ...]:
    argv = ["bench", *family, *topology, "--seed", str(seed), "--timing"]
    if max_iter is not None:
        argv += ["--max-iter", str(max_iter)]
    return tuple(argv)


BANDED_2 = ["--topology", "banded", "--band", "2"]
FULL = ["--topology", "full"]


def run_bench(argv) -> tuple[int, str]:
    """cli.main(argv) with the CSV captured instead of printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def as_float(text: str | None) -> float:
    """A CSV cell as a float; empty or malformed cells are NaN and fail the checks."""
    try:
        return float(text or "nan")
    except ValueError:
        return math.nan


def check_bench_csv(label: str, rc: int, text: str, checks: Checks) -> dict[str, dict]:
    """Check one bench output; return its rows keyed by method."""
    lines = text.splitlines()
    checks.add(f"{label}: bench exit code {rc}", rc == 0)
    checks.add(f"{label}: bench CSV header", bool(lines) and lines[0] == cli.BENCH_HEADER)
    rows = list(csv.DictReader(lines))
    checks.add(f"{label}: 9 bench rows, got {len(rows)}", len(rows) == len(METHOD_NAMES))
    by_method = {r.get("method"): r for r in rows}
    checks.add(f"{label}: bench methods", set(by_method) == set(METHOD_NAMES))
    for r in rows:
        method = r.get("method")
        checks.add(f"{label}/{method}: status {r.get('status')}", r.get("status") == "ok")
        cond = as_float(r.get("cond_method"))
        checks.add(f"{label}/{method}: cond {cond}", math.isfinite(cond) and cond >= 1.0)
    return by_method


def check_learned(x: Learned, R: np.ndarray, checks: Checks) -> None:
    """Output checks on a learned transform held in memory."""
    res = x.result
    orthonormal = checks.add(f"{x.label}: U orthonormal to {ORTHONORMALITY_TOL:g}",
                             orthonormality_error(res.U) <= ORTHONORMALITY_TOL)
    checks.add(f"{x.label}: cond {x.precog_cond} finite and >= 1",
               math.isfinite(x.precog_cond) and x.precog_cond >= 1.0)
    checks.add(f"{x.label}: best cond equals rescored U",
               orthonormal and split_preconditioned_cond(R, res.U) == x.precog_cond)


def best_index(res: PrecogResult) -> int:
    conds = [rec.split_cond for rec in res.history]
    return conds.index(min(conds))


def learned_from(label: str, R: np.ndarray, res: PrecogResult, opt_s: float) -> Learned:
    return Learned(label=label, n=R.shape[0], precog_cond=res.best_cond,
                   iters=len(res.history), best_iter=best_index(res),
                   result=res, opt_s=opt_s)


class Workload:
    """A fixed job list over inputs made from one seed."""

    name = ""

    def generate(self, seed: int, tr=NULL_TRACER) -> dict:
        raise NotImplementedError

    def run_pass(self, inp: dict, tr=NULL_TRACER) -> Pass:
        raise NotImplementedError

    def check_pass(self, inp: dict, p: Pass, checks: Checks) -> None:
        """Output checks, outside the timed region; fills reference conds."""
        raise NotImplementedError

    def bench_cases(self, inp: dict) -> list[BenchCase]:
        """Bench calls whose cost the traced run splits into layers."""
        raise NotImplementedError

    def learn_inputs(self, inp: dict) -> list[tuple[np.ndarray, Topology, HyperParams]]:
        """(R, topology, hyperparameters) of each optimize call, in pass order."""
        raise NotImplementedError

    # whether run_pass itself makes the bench calls of bench_cases
    pass_runs_bench = False

    def measure(self, seed: int, seconds: float, import_once) -> RunResult:
        """Time set-up, then repeat the job list while another pass fits in ``seconds``.

        ``import_once()`` returns the seconds one fresh interpreter took to
        import precog.  Every time is divided by the host slowness that the
        clock's probe measured just before it.
        """
        clock = CalibratedClock()
        setup = []
        for _ in range(SETUP_REPEATS):
            import_s, _ = clock.job("setup.import", import_once)
            import_s /= clock.last_slowness
            _, generate_s = clock.job("setup.generate", self.generate, seed)
            setup.append(import_s + generate_s)

        inp = self.generate(seed)
        checks = Checks()
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            p = self.run_pass(inp, clock)
            self.check_pass(inp, p, checks)
            for x in p.learned:
                x.result = None
            passes.append(p)
            if time.perf_counter() - start + p.wall_s > seconds:
                break
        checks.add("identical quality in every pass",
                   len({p.quality_key() for p in passes}) == 1)
        first = passes[0]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": job_medians(passes, "job_s"),
            "optimize_iters_per_s": first.opt_iters / job_medians(passes, "opt_s"),
            **quality_metrics(first.learned),
        }
        report = {
            "passes": (float(len(passes)), "count"),
            "host_slowness": (clock.slowness(), "ratio"),
            "wall_s.raw_pass_median": (statistics.median(p.wall_s for p in passes), "s"),
            "tdlms_steps_per_s": (
                first.sysid_steps / job_medians(passes, "sysid_s")
                if first.sysid_steps else None, "1/s"),
            **{f"iters_to_m20db.{name}": (
                float(statistics.median(first.hits[name])) if first.hits else None, "steps")
               for name in TDLMS_FILTERS},
            "failed_frac": (checks.failed / checks.attempted, "fraction"),
            "restarts_log10_gain.median": (statistics.median(
                math.log10(x.none_cond / x.precog_cond) for x in first.learned), "log10"),
        }
        for name, value in metrics.items():
            report[name] = (value, UNITS[name])
        return RunResult(metrics=metrics, report=report,
                         quality=[x.quality_row() for x in first.learned], checks=checks)


def job_medians(passes: list[Pass], attr: str) -> float:
    """Sum over jobs of each job's median seconds across passes."""
    return sum(statistics.median(col) for col in zip(*(getattr(p, attr) for p in passes)))


UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "optimize_iters_per_s": "1/s",
    "precog_over_dct": "ratio",
    "restarts_improved": "count",
    "restarts_log10_gain": "log10",
}


def quality_metrics(learned: list[Learned]) -> dict[str, float]:
    """Learned-versus-reference scores over every transform a pass learned."""
    ratios = [x.precog_cond / x.dct_cond for x in learned]
    gains = [math.log10(x.none_cond / x.precog_cond) for x in learned]
    return {
        "precog_over_dct": math.exp(statistics.fmean(math.log(r) for r in ratios)),
        "restarts_improved": float(sum(x.precog_cond < x.none_cond for x in learned)),
        "restarts_log10_gain": statistics.fmean(gains),
    }


class MarkovBanded(Workload):
    """AR(1) at rho in {0.5, 0.9, 0.95} and n in {64, 128}, banded-2, via bench."""

    name = "markov-banded"
    pass_runs_bench = True
    RHOS = (0.5, 0.9, 0.95)
    NS = (64, 128)

    def generate(self, seed, tr=NULL_TRACER):
        cases = []
        for n in self.NS:
            topo = tr.call("graph.banded_topology", banded_topology, n, 2)
            for rho in self.RHOS:
                R = tr.call("matgen.ar1_autocorr", ar1_autocorr, n, rho)
                argv = bench_argv(["--family", "ar1", "--n", str(n), "--rho", repr(rho)],
                                  BANDED_2, seed)
                cases.append(BenchCase(f"ar1-n{n}-rho{rho:g}", argv, R, topo,
                                       HyperParams(seed=seed)))
        return {"cases": cases}

    def bench_cases(self, inp):
        return inp["cases"]

    def learn_inputs(self, inp):
        return [(c.R, c.topology, c.hp) for c in inp["cases"]]

    def run_pass(self, inp, tr=NULL_TRACER):
        p = Pass()
        outputs = []
        t0 = time.perf_counter()
        for case in inp["cases"]:
            out, dt = tr.job("cli.main", run_bench, case.argv)
            outputs.append((out, tr.last_slowness))
            p.job_s.append(dt)
        p.wall_s = time.perf_counter() - t0
        p.outputs = outputs
        return p

    def check_pass(self, inp, p, checks):
        for case, ((rc, text), slowness) in zip(inp["cases"], p.outputs):
            rows = check_bench_csv(case.label, rc, text, checks)
            cond = {m: as_float(r.get("cond_method")) for m, r in rows.items()}
            precog = rows.get("precog", {})
            iters = int(precog.get("iterations") or 0)
            p.opt_iters += iters
            p.opt_s.append(as_float(precog.get("wall_ms")) / 1000.0 / slowness)
            p.learned.append(Learned(
                label=case.label, n=case.R.shape[0], precog_cond=cond.get("precog", math.nan),
                iters=iters, dct_cond=cond.get("dct", math.nan),
                none_cond=cond.get("none", math.nan), ilu0_cond=cond.get("ilu0"),
                ilu0_exact_lu=density(case.R) == 1.0,
            ))
        p.outputs = []


class RestartsFull(Workload):
    """25 optimize runs over the full topology: criterion 3's five families."""

    name = "restarts-full"
    MAX_ITER = 500
    SPARSE = ((5 / 6, "5/6"), (1 / 2, "1/2"), (1 / 5, "1/5"))

    def generate(self, seed, tr=NULL_TRACER):
        full = {n: tr.call("graph.full_topology", full_topology, n) for n in (10, 12)}
        H = tr.call("matgen.hilbert", hilbert, 10, 1e-4)
        jobs = []
        # criterion 3's matrices (seeds 0..4); the seed picks the optimizer starts
        for s in range(5):
            hp = HyperParams(max_iter=self.MAX_ITER, seed=seed + s)
            tag = f"#s{seed + s}"
            jobs.append((f"hilbert(10,1e-4){tag}", H, full[10], hp))
            jobs.append((f"random_pd(10,{s},1e-3){tag}", tr.call(
                "matgen.random_pd", random_pd, 10, s, 1e-3), full[10], hp))
            for dens, label in self.SPARSE:
                jobs.append((f"sparse_pd(12,{label},{s}){tag}", tr.call(
                    "matgen.random_sparse_pd", random_sparse_pd, 12, dens, s), full[12], hp))
        return {"jobs": jobs, "seed": seed, "refs": {}}

    def bench_cases(self, inp):
        seed = inp["seed"]
        specs = (
            ("hilbert", ["--family", "hilbert", "--n", "10", "--alpha", "0.0001"],
             hilbert(10, 1e-4)),
            ("random-pd", ["--family", "random-pd", "--n", "10", "--reg", "0.001"],
             random_pd(10, seed, 1e-3)),
            ("sparse-pd", ["--family", "sparse-pd", "--n", "12", "--density", "0.5"],
             random_sparse_pd(12, 0.5, seed)),
        )
        return [BenchCase(label, bench_argv(family, FULL, seed, self.MAX_ITER), R,
                          full_topology(R.shape[0]),
                          HyperParams(max_iter=self.MAX_ITER, seed=seed))
                for label, family, R in specs]

    def learn_inputs(self, inp):
        return [(R, topo, hp) for _, R, topo, hp in inp["jobs"]]

    def run_pass(self, inp, tr=NULL_TRACER):
        p = Pass()
        t0 = time.perf_counter()
        for label, R, topo, hp in inp["jobs"]:
            res, dt = tr.job("learn.optimize", optimize, R, topo, hp)
            p.job_s.append(dt)
            p.opt_s.append(dt)
            p.opt_iters += len(res.history)
            p.learned.append(learned_from(label, R, res, dt))
        p.wall_s = time.perf_counter() - t0
        return p

    def check_pass(self, inp, p, checks):
        refs = inp["refs"]
        for x, (label, R, _, _) in zip(p.learned, inp["jobs"]):
            if label not in refs:
                refs[label] = (split_preconditioned_cond(R, dct_matrix(R.shape[0]).T),
                               none_cond(R))
            x.dct_cond, x.none_cond = refs[label]
            check_learned(x, R, checks)


class TdlmsSysid(Workload):
    """Plain, DCT and learned-transform LMS on ten plants, AR(1) input."""

    name = "tdlms-sysid"
    MAX_ITER = 500

    def generate(self, seed, tr=NULL_TRACER):
        R = tr.call("matgen.ar1_autocorr", ar1_autocorr, TDLMS_TAPS, TDLMS_RHO)
        topo = tr.call("graph.banded_topology", banded_topology, TDLMS_TAPS, 2)
        plants = []
        for j in range(seed, seed + TDLMS_PLANTS):
            h = np.random.default_rng(j).standard_normal(TDLMS_TAPS)
            plants.append((j, h / np.linalg.norm(h)))
        return {
            "R": R, "topology": topo, "plants": plants, "seed": seed,
            "hp": HyperParams(max_iter=self.MAX_ITER, seed=TDLMS_LEARN_SEED),
            "spec": SignalSpec("ar1", rho=TDLMS_RHO),
            "dct": tr.call("baselines.dct_matrix", dct_matrix, TDLMS_TAPS).T,
        }

    def bench_cases(self, inp):
        argv = bench_argv(["--family", "ar1", "--n", str(TDLMS_TAPS), "--rho", repr(TDLMS_RHO)],
                          BANDED_2, TDLMS_LEARN_SEED, self.MAX_ITER)
        return [BenchCase("ar1-n16-rho0.9", argv, inp["R"], inp["topology"], inp["hp"])]

    def learn_inputs(self, inp):
        return [(inp["R"], inp["topology"], inp["hp"])]

    def run_pass(self, inp, tr=NULL_TRACER):
        p = Pass()
        t0 = time.perf_counter()
        res, dt = tr.job("learn.optimize", optimize, inp["R"], inp["topology"], inp["hp"])
        p.opt_s.append(dt)
        p.job_s.append(dt)
        p.opt_iters = len(res.history)
        p.learned.append(learned_from("ar1-n16-rho0.9", inp["R"], res, p.opt_s[0]))
        configs = {
            "plain": FilterConfig(taps=TDLMS_TAPS, step=TDLMS_STEP),
            "dct": FilterConfig(taps=TDLMS_TAPS, step=TDLMS_STEP, transform=inp["dct"]),
            "precog": FilterConfig(taps=TDLMS_TAPS, step=TDLMS_STEP, transform=res.U),
        }
        p.hits = {name: [] for name in configs}
        for j, plant in inp["plants"]:
            for name, cfg in configs.items():
                trace, dt = tr.job("tdlms.system_id_experiment", system_id_experiment,
                                   plant, inp["spec"], TDLMS_SNR_DB, cfg, TDLMS_RUN_LEN, j)
                hit = trace.iterations_to_threshold(MISALIGNMENT_DB)
                p.sysid_s.append(dt)
                p.job_s.append(dt)
                p.sysid_steps += TDLMS_RUN_LEN
                p.hits[name].append(hit if hit is not None else TDLMS_RUN_LEN + 1)
                p.outputs.append((f"plant{j}/{name}", trace))
        p.wall_s = time.perf_counter() - t0
        return p

    def check_pass(self, inp, p, checks):
        x = p.learned[0]
        x.dct_cond = split_preconditioned_cond(inp["R"], inp["dct"])
        x.none_cond = none_cond(inp["R"])
        check_learned(x, inp["R"], checks)
        for label, trace in p.outputs:
            checks.add(f"{label}: misalignment finite",
                       bool(np.all(np.isfinite(trace.misalignment))))
        p.outputs = []


WORKLOADS = {w.name: w for w in (MarkovBanded, RestartsFull, TdlmsSysid)}

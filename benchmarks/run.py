#!/usr/bin/env python3
"""precog benchmark: one named workload per process.

    python3 benchmarks/run.py --workload markov-banded --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the fixed job list of the workload is repeated while the
time budget allows and the end-to-end metrics of BENCHMARK.json are
printed.  With ``--trace 1`` one pass runs untraced and one traced, the
first iterations of every ``optimize`` call are replayed through the
public layer functions, and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the program
under test or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and its children, set before numpy
# loads.  Unpinned, single eigh calls stall for tens of milliseconds.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import precog\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class SetupError(Exception):
    """The program under test or the benchmark description is missing."""


def import_precog():
    """Import precog from the checkout's src/ and nowhere else."""
    if not (SRC / "precog" / "__init__.py").is_file():
        raise SetupError(f"no precog package under {SRC}")
    sys.path.insert(0, str(SRC))
    import precog

    if SRC not in Path(precog.__file__).resolve().parents:
        raise SetupError(f"precog was imported from {precog.__file__}, not {SRC}")
    return precog


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


def import_once() -> float:
    """Seconds a fresh interpreter takes to import precog."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def finite_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def self_check(printed: dict, expected: list[dict], report: dict) -> list[str]:
    """Printed metric names must equal BENCHMARK.json's and match NAME_RE."""
    problems = []
    want = {m["name"]: m["unit"] for m in expected}
    if set(printed) != set(want):
        problems.append(f"metric names {sorted(printed)} != BENCHMARK.json {sorted(want)}")
    for name, value in printed.items():
        if want.get(name) not in (None, value["unit"]):
            problems.append(f"{name}: unit {value['unit']} != {want[name]}")
    for name in list(printed) + list(report):
        if not NAME_RE.fullmatch(name):
            problems.append(f"metric name {name!r} does not match {NAME_RE.pattern}")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    try:
        spec = load_spec()
        import_precog()
    except (SetupError, json.JSONDecodeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(BENCH_DIR))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    env = environment_block()
    print("environment: " + json.dumps(env, sort_keys=True))

    try:
        if args.trace:
            result = layers.traced_run(wl, args.seed, uuid.uuid4().hex)
        else:
            result = wl.measure(args.seed, args.seconds, import_once)
    except Exception:  # the program under test failed: report it as one failed run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if args.trace:
        expected = spec["per_layer"]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.metrics["peak_rss_mb"] = rss_mb
        result.report["peak_rss_mb"] = (rss_mb, "MB")
        expected = spec["end_to_end"]

    # a failed run can produce NaN, which is not JSON; it prints as null
    printed = {
        m["name"]: {"value": finite_or_none(result.metrics[m["name"]]), "unit": m["unit"]}
        for m in expected
        if m["name"] in result.metrics
    }
    for problem in self_check(printed, expected, result.report):
        result.checks.add(f"self-check: {problem}", False)

    for row in result.quality:
        print("quality: " + json.dumps(row, sort_keys=True))
    for name, (value, unit) in sorted(result.report.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"report: {name} = {shown} {unit}")
    for name in result.checks.failures[:20]:
        print(f"FAILED check: {name}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": printed,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in result.report.items()},
        "quality": result.quality, "failed_checks": result.checks.failures,
    }, indent=1, sort_keys=True) + "\n")
    if result.spans:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for span in result.spans:
                fh.write(json.dumps(span) + "\n")

    correct = result.checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.checks.attempted,
        "failed": result.checks.failed,
        "metrics": printed,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

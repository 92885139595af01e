"""Shared pieces of the benchmark: output checks, spans and run results."""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


class Checks:
    """Counts output checks; each check is one attempt, each False one failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


class Tracer:
    """In-memory spans around calls into precog: name, start, end, parent, run id.

    Spans are appended when they close, so ``spans[-1]`` is the call that
    just returned.  ``count`` is the number of operations a span covers.
    """

    last_slowness = 1.0

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str,
               start: float, end: float, count: int) -> None:
        self._stack.pop()
        self.spans.append({
            "run_id": self.run_id, "id": sid, "parent": parent, "name": name,
            "start": start, "end": end, "count": count,
        })

    def call(self, name: str, fn, *args, **kwargs):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, start, time.perf_counter(), 1)

    @contextlib.contextmanager
    def block(self, name: str, count: int):
        """One span around ``count`` operations of a few microseconds each."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, time.perf_counter(), count)

    def job(self, name: str, fn, *args):
        result = self.call(name, fn, *args)
        return result, self.last_s

    @property
    def last_s(self) -> float:
        span = self.spans[-1]
        return span["end"] - span["start"]

    def per_op_s(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) / s["count"] for s in self.spans if s["name"] == name]


class NullTracer:
    """Untraced runs: calls go straight through."""

    last_slowness = 1.0

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def job(self, name: str, fn, *args):
        """Run one job of a job list; return its result and its seconds."""
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start


NULL_TRACER = NullTracer()

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T
PROBE_REPEATS = 3
# seconds of one probe on an uncontended 2-vCPU Xeon host
PROBE_NOMINAL_S = 0.0025


def _probe_once() -> float:
    # interpreter loop plus small LAPACK calls: the mix the jobs run
    acc = 0.0
    for k in range(20_000):
        acc += (k % 7) * 0.5
    for _ in range(8):
        np.linalg.eigh(_PROBE_MATRIX)
    return acc


class CalibratedClock(NullTracer):
    """Untraced runs that time a fixed host-speed probe before every job.

    On a shared host the same work takes up to twice as long in spells of
    a fraction of a second to minutes.  ``job`` returns the job's seconds
    divided by ``last_slowness``: the mean probe time just before and just
    after the job, over the probe's nominal time.  Those vary several times
    less from run to run than raw seconds.
    """

    def __init__(self) -> None:
        self.probe_s: list[float] = []
        self.last_slowness = 1.0

    def slowness(self) -> float:
        """Run-wide probe time over nominal; a trimmed mean drops descheduled probes."""
        probes = sorted(self.probe_s)
        return statistics.fmean(probes[: max(1, int(0.9 * len(probes)))]) / PROBE_NOMINAL_S

    def _probe(self) -> None:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _probe_once()
            self.probe_s.append(time.perf_counter() - start)

    def job(self, name: str, fn, *args):
        self._probe()
        result, dt = super().job(name, fn, *args)
        self._probe()
        bracket = self.probe_s[-2 * PROBE_REPEATS:]
        self.last_slowness = statistics.fmean(bracket) / PROBE_NOMINAL_S
        return result, dt / self.last_slowness


@dataclass
class RunResult:
    """What one benchmark process reports.

    ``metrics`` holds the values named in BENCHMARK.json; ``report`` holds
    every metric of the human-readable report as (value or None, unit).
    """

    metrics: dict[str, float]
    report: dict[str, tuple[float | None, str]]
    quality: list[dict]
    checks: Checks
    spans: list[dict] = field(default_factory=list)

"""Smoke run of the LMS convergence script at a tiny size: it writes its traces."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def test_lms_convergence_writes_one_trace_per_filter(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "lms_convergence.py", "--taps", "6", "--max-iter", "10",
               "--run-len", "500", "--seeds", "1", "--outdir", str(tmp_path))
    traces = {p.name for p in tmp_path.glob("lms_trace_*.csv")}
    assert traces == {f"lms_trace_{f}.csv" for f in ("plain", "dct", "precog")}
    for name in traces:
        header, rows = read_csv(tmp_path / name)
        assert header == "k,e2,misalignment_db"
        assert len(rows) == 500

"""Smoke runs of the experiment scripts at tiny sizes: each writes its CSVs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DENSE = {"precog", "none", "dct", "dft", "jacobi", "gauss-seidel", "sor", "ssor"}


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


@pytest.mark.parametrize("name, argv, header, methods, method_col", [
    ("markov_sweep.py", ["--rhos", "0.5"],
     "rho,method,cond,condition_ratio,log10_ratio", DENSE, 1),
    ("hilbert_sweep.py", ["--alphas", "0.01"],
     "alpha,neg_log10_alpha,method,cond,condition_ratio,log10_ratio", DENSE, 2),
    ("sparsity_sweep.py", [],
     "target_density,achieved_density,method,cond,condition_ratio,log10_ratio",
     DENSE | {"ilu0"}, 2),
], ids=["markov", "hilbert", "sparsity"])
def test_sweep_writes_one_row_per_method(tmp_path, monkeypatch, capsys, name, argv,
                                         header, methods, method_col):
    out = tmp_path / "sweep.csv"
    run_script(monkeypatch, name, "--n", "6", "--max-iter", "10", *argv, "--out", str(out))
    got_header, rows = read_csv(out)
    assert got_header == header
    assert {row[method_col] for row in rows} == methods
    assert len(rows) % len(methods) == 0  # every method on every sweep point


def test_lms_convergence_writes_one_trace_per_filter(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "lms_convergence.py", "--taps", "6", "--max-iter", "10",
               "--run-len", "500", "--seeds", "1", "--outdir", str(tmp_path))
    traces = {p.name for p in tmp_path.glob("lms_trace_*.csv")}
    assert traces == {f"lms_trace_{f}.csv" for f in ("plain", "dct", "precog")}
    for name in traces:
        header, rows = read_csv(tmp_path / name)
        assert header == "k,e2,misalignment_db"
        assert len(rows) == 500

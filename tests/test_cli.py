import csv
import statistics

import numpy as np
import pytest

from precog import cli
from precog.baselines import METHOD_NAMES, baseline_cond, none_cond
from precog.cli import BENCH_HEADER, main
from precog.errors import DivergenceError, IluBreakdownError
from precog.graph import banded_topology
from precog.learn import HyperParams, optimize
from precog.matgen import FAMILIES, SignalSpec, ar1_autocorr, hilbert, load_matrix, save_matrix
from precog.spectral import cond_spd, orthonormality_error, split_preconditioned_cond
from precog.tdlms import FilterConfig, MseTrace, system_id_experiment


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, err, needle):
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err


# latin-1 writes these as the bytes ff fe 00, which are not UTF-8
NOT_UTF8 = "\xff\xfe\x00"
# exactly symmetric and positive definite, but optimize overflows on it
BIG200 = "3\n2e200 1e200 0\n1e200 2e200 1e200\n0 1e200 2e200\n"


def csv_rows(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestGen:
    def test_ar1_file_and_cond(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, stdout, _ = run(
            capsys, "gen", "--family", "ar1", "--n", "8", "--rho", "0.5",
            "--out", str(out),
        )
        assert code == 0
        M = load_matrix(out)
        assert np.allclose(M, ar1_autocorr(8, 0.5), atol=0)
        printed = float(stdout.split("cond=")[1].split()[0])
        assert printed == cond_spd(M)

    def test_hilbert_entries(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        code, _, _ = run(
            capsys, "gen", "--family", "hilbert", "--n", "3", "--alpha", "0",
            "--out", str(out),
        )
        assert code == 0
        assert np.array_equal(load_matrix(out), hilbert(3, 0.0))

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            run(capsys, "gen", "--family", "random-pd", "--n", "6", "--seed", "3",
                "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_registry_family(self, tmp_path, capsys, family):
        out = tmp_path / "m.txt"
        code, stdout, _ = run(capsys, "gen", "--family", family, "--n", "6", "--out", str(out))
        assert code == 0
        assert stdout.startswith(f"{family}-n6-")
        assert load_matrix(out).shape == (6, 6)

    def test_usage_error_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--family", "klein-bottle",
                         "--out", str(tmp_path / "x.txt"))
        assert code == 2


class TestBench:
    def bench_args(self, matrix, out, *extra):
        return [
            "bench", "--matrix", str(matrix), "--methods", "dct,none",
            "--max-iter", "40", "--seed", "3", "--out", str(out), *extra,
        ]

    @pytest.fixture
    def matrix_file(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        run(capsys, "gen", "--family", "ar1", "--n", "6", "--rho", "0.5",
            "--out", str(path))
        return path

    def test_rows_and_ratio(self, tmp_path, capsys, matrix_file):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, *self.bench_args(matrix_file, out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == BENCH_HEADER
        rows = [dict(zip(BENCH_HEADER.split(","), l.split(","))) for l in lines[1:]]
        methods = [r["method"] for r in rows]
        assert methods == sorted(methods)
        assert "precog" in methods  # always included as the denominator
        by_method = {r["method"]: r for r in rows}
        precog_cond = float(by_method["precog"]["cond_method"])
        dct_cond = float(by_method["dct"]["cond_method"])
        assert np.isclose(float(by_method["dct"]["condition_ratio"]), dct_cond / precog_cond)
        assert float(by_method["precog"]["condition_ratio"]) == 1.0
        assert by_method["precog"]["iterations"] != ""
        # method none reports the power-normalized condition number
        R = load_matrix(matrix_file)
        assert np.isclose(float(by_method["none"]["cond_method"]), none_cond(R))

    def test_byte_identical_csv(self, tmp_path, capsys, matrix_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, *self.bench_args(matrix_file, out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timing_column_opt_in(self, tmp_path, capsys, matrix_file):
        out = tmp_path / "t.csv"
        run(capsys, *self.bench_args(matrix_file, out, "--timing"))
        rows = out.read_text().splitlines()[1:]
        idx = BENCH_HEADER.split(",").index("wall_ms")
        assert all(float(r.split(",")[idx]) >= 0.0 for r in rows)

    def test_generated_family_rows(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "bench", "--family", "ar1", "--n", "6", "--rho", "0.9",
            "--methods", "dct", "--max-iter", "40", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + dct + precog
        assert lines[1].startswith("ar1-n6-rho0.9,6,ar1,rho=0.9,dct,")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "family = ar1\nn = 6\nrho = 0.9\nmethods = dct\n"
            "max_iter = 40\nseed = 1\n# comment line\n"
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code, _, _ = run(capsys, "bench", "--config", str(cfg), "--out", str(out_a))
        assert code == 0
        # flags override config: rho flips to 0.5
        code, _, _ = run(capsys, "bench", "--config", str(cfg), "--rho", "0.5",
                         "--out", str(out_b))
        assert code == 0
        assert "rho=0.9" in out_a.read_text()
        assert "rho=0.5" in out_b.read_text()

    def test_unknown_method_is_usage_error(self, tmp_path, capsys, matrix_file):
        code, _, err = run(
            capsys, "bench", "--matrix", str(matrix_file), "--methods", "qr-magic",
            "--out", str(tmp_path / "x.csv"),
        )
        assert_usage_error(code, err, "qr-magic")

    def test_failed_cell_gets_status_row(self, tmp_path, capsys, monkeypatch):
        # force one method to break and check the row reports it
        import precog.baselines as baselines_mod

        def boom(A):
            raise IluBreakdownError("zero pivot at index 0")

        monkeypatch.setattr(baselines_mod, "ilu0_precond", boom)
        mat = tmp_path / "m.txt"
        run(capsys, "gen", "--family", "ar1", "--n", "5", "--rho", "0.5",
            "--out", str(mat))
        out = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "bench", "--matrix", str(mat), "--methods", "ilu0,none",
            "--max-iter", "30", "--seed", "2", "--out", str(out),
        )
        assert code == 0  # not all rows failed
        rows = out.read_text().splitlines()[1:]
        cols = BENCH_HEADER.split(",")
        by_method = {r.split(",")[cols.index("method")]: r.split(",") for r in rows}
        assert by_method["ilu0"][cols.index("status")] == "IluBreakdownError"
        assert by_method["ilu0"][cols.index("cond_method")] == ""
        assert by_method["none"][cols.index("status")] == "ok"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_precog_is_a_status_row(self, tmp_path, capsys):
        big = tmp_path / "big200.txt"
        big.write_text(BIG200)
        out = tmp_path / "r.csv"
        code, _, err = run(capsys, "bench", "--matrix", str(big), "--max-iter", "20",
                           "--out", str(out))
        assert code == 0 and err == ""
        rows = {r["method"]: r for r in csv_rows(out)}
        assert rows["precog"]["status"] == "DivergenceError"
        assert all(rows["precog"][k] == "" for k in
                   ("cond_method", "condition_ratio", "log10_ratio"))
        baselines = [r for m, r in rows.items() if m != "precog"]
        assert len(baselines) == 8 and all(r["status"] == "ok" for r in baselines)

    def test_one_by_one_file_fails_only_its_precog_row(self, tmp_path, capsys, matrix_file):
        one = tmp_path / "g1.txt"
        assert run(capsys, "gen", "--family", "ar1", "--n", "1", "--out", str(one))[0] == 0
        alone = tmp_path / "alone.csv"
        both = tmp_path / "both.csv"
        assert run(capsys, *self.bench_args(matrix_file, alone))[0] == 0
        code, _, err = run(capsys, *self.bench_args(matrix_file, both, "--matrix", str(one)))
        assert code == 0 and err == ""
        rows = {r["method"]: r for r in csv_rows(both) if r["matrix_id"] == "g1"}
        assert rows["precog"]["status"] == "InvalidDimensionError"
        assert rows["precog"]["cond_method"] == ""
        assert rows["none"]["status"] == rows["dct"]["status"] == "ok"
        assert [l for l in both.read_text().splitlines() if not l.startswith("g1,")] == \
            alone.read_text().splitlines()

    def test_failed_matrix_gets_status_rows(self, tmp_path, capsys, matrix_file):
        # hilbert(14) has a negative eigenvalue in floating point
        args = ["--methods", "none", "--max-iter", "20", "--seed", "3"]
        alone = tmp_path / "alone.csv"
        both = tmp_path / "both.csv"
        assert run(capsys, "bench", "--matrix", str(matrix_file), *args,
                   "--out", str(alone))[0] == 0
        code, _, _ = run(capsys, "bench", "--matrix", str(matrix_file), "--family", "hilbert",
                         "--n", "14", *args, "--out", str(both))
        assert code == 0  # the ar1 rows succeeded
        cols = BENCH_HEADER.split(",")
        rows = [dict(zip(cols, l.split(","))) for l in both.read_text().splitlines()[1:]]
        bad = [r for r in rows if r["family"] == "hilbert"]
        assert sorted(r["method"] for r in bad) == ["none", "precog"]
        assert all(r["cond_raw"] == "" and r["status"] == "NotPositiveDefiniteError"
                   for r in bad)
        good = [l for l in both.read_text().splitlines()[1:] if ",hilbert," not in l]
        assert good == alone.read_text().splitlines()[1:]
        # every row failed: exit 1, the status rows are still written
        only = tmp_path / "only.csv"
        code, _, _ = run(capsys, "bench", "--family", "hilbert", "--n", "14", *args,
                         "--out", str(only))
        assert code == 1
        assert len(only.read_text().splitlines()) == 3

    def test_nonpositive_dft_spectrum_is_a_status_row(self, tmp_path, capsys):
        # hilbert(13) is positive definite in floating point; its DFT congruence is not
        out = tmp_path / "h13.csv"
        code, _, err = run(capsys, "bench", "--family", "hilbert", "--n", "13", "--max-iter",
                           "1", "--methods", "dft,none", "--out", str(out))
        assert code == 0 and err == ""
        rows = {r["method"]: r for r in csv_rows(out)}
        assert rows["dft"]["status"] == "NotPositiveDefiniteError"
        assert all(rows["dft"][k] == "" for k in
                   ("cond_method", "condition_ratio", "log10_ratio"))
        assert rows["none"]["status"] == rows["precog"]["status"] == "ok"

    def test_env_var_default_seed(self, tmp_path, capsys, monkeypatch, matrix_file):
        monkeypatch.setenv("PRECOG_SEED", "17")
        out = tmp_path / "env.csv"
        code, _, _ = run(
            capsys, "bench", "--matrix", str(matrix_file), "--methods", "none",
            "--max-iter", "30", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[11] == "17"

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                 matrix_file):
        monkeypatch.setenv("PRECOG_SEED", "abc")
        code, _, err = run(capsys, "bench", "--matrix", str(matrix_file),
                           "--methods", "none", "--out", str(tmp_path / "x.csv"))
        assert_usage_error(code, err, "PRECOG_SEED")

    def test_missing_matrix_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "bench", "--matrix", str(tmp_path / "absent.txt"),
                           "--methods", "none", "--out", str(out))
        assert_usage_error(code, err, "absent.txt")
        assert not out.exists()

    def test_non_integer_seed_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "bench", "--family", "ar1", "--n", "6",
                           "--seed", "1,x", "--out", str(out))
        assert_usage_error(code, err, "--seed")
        assert not out.exists()

    def test_config_without_path_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "bench", "--family", "ar1", "--config")
        assert_usage_error(code, err, "--config")

    def test_non_number_in_family_list_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "bench", "--family", "ar1", "--rho", "0.5,abc",
                           "--out", str(out))
        assert code == 2
        assert "argument --rho" in err
        assert not out.exists()


class TestBenchSweep:
    """Comma-separated family flags: one matrix per combination of values."""

    # the AR(1) sweep of the paper: banded-2 topology, the dense baselines
    AR1 = ["--family", "ar1", "--n", "6", "--topology", "banded", "--band", "2",
           "--seed", "7", "--max-iter", "10",
           "--methods", "none,dct,dft,jacobi,gauss-seidel,sor,ssor"]

    def test_sweep_equals_merged_single_runs(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        assert run(capsys, "bench", *self.AR1, "--rho", "0.5,0.9", "--out", str(sweep))[0] == 0
        single = []
        for rho in ("0.5", "0.9"):
            out = tmp_path / f"rho{rho}.csv"
            assert run(capsys, "bench", *self.AR1, "--rho", rho, "--out", str(out))[0] == 0
            single += out.read_text().splitlines()[1:]
        lines = sweep.read_text().splitlines()
        assert lines[0] == BENCH_HEADER
        assert lines[1:] == sorted(single)
        assert len(lines) == 1 + 2 * 8

    def test_sweep_rows_match_the_library(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(capsys, "bench", *self.AR1, "--rho", "0.5,0.9", "--out", str(out))[0] == 0
        rows = csv_rows(out)
        for rho in (0.5, 0.9):
            R = ar1_autocorr(6, rho)
            U = optimize(R, banded_topology(6, 2), HyperParams(max_iter=10, seed=7)).U
            precog_cond = split_preconditioned_cond(R, U)
            block = {r["method"]: r for r in rows if r["matrix_id"] == f"ar1-n6-rho{rho:g}"}
            assert len(block) == 8
            for method, r in block.items():
                want = precog_cond if method == "precog" else baseline_cond(method, R)
                assert float(r["cond_method"]) == want
                assert float(r["condition_ratio"]) == want / precog_cond
                assert float(r["log10_ratio"]) == float(np.log10(want / precog_cond))

    def test_sparse_pd_densities_cover_every_method(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "bench", "--family", "sparse-pd", "--n", "6",
                         "--density", "0.5,0.2", "--max-iter", "10", "--seed", "0",
                         "--out", str(out))
        assert code == 0
        rows = csv_rows(out)
        ids = sorted({r["matrix_id"] for r in rows})
        assert ids == ["sparse-pd-n6-density0.2-shift_margin0.05-s0",
                       "sparse-pd-n6-density0.5-shift_margin0.05-s0"]
        for matrix_id in ids:
            methods = [r["method"] for r in rows if r["matrix_id"] == matrix_id]
            assert sorted(methods) == sorted(METHOD_NAMES)  # ilu0 included
        assert all(r["status"] == "ok" for r in rows)

    def test_seed_list_equals_merged_single_seed_runs(self, tmp_path, capsys):
        args = ["--family", "ar1", "--n", "6", "--max-iter", "10", "--methods", "none,dct"]
        multi = tmp_path / "multi.csv"
        assert run(capsys, "bench", *args, "--seed", "0,1", "--out", str(multi))[0] == 0
        single = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}.csv"
            assert run(capsys, "bench", *args, "--seed", seed, "--out", str(out))[0] == 0
            for line in out.read_text().splitlines()[1:]:
                matrix_id, rest = line.split(",", 1)
                single.append(f"{matrix_id}#s{seed},{rest}")
        lines = multi.read_text().splitlines()
        assert lines[0] == BENCH_HEADER
        assert lines[1:] == sorted(single)
        assert [r["matrix_id"] for r in csv_rows(multi)] == (
            ["ar1-n6-rho0.9#s0"] * 3 + ["ar1-n6-rho0.9#s1"] * 3)

    def test_blocks_come_out_in_matrix_id_order(self, tmp_path, capsys):
        # file stems that sort before, between and after the family's ids
        files = []
        for stem in ("zz", "ar1-n6-rho0.7", "aa"):
            files += ["--matrix", str(tmp_path / f"{stem}.txt")]
            save_matrix(ar1_autocorr(6, 0.7), tmp_path / f"{stem}.txt")
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "bench", *files, "--family", "ar1", "--n", "6",
                         "--rho", "0.9,0.5", "--methods", "none", "--max-iter", "5",
                         "--out", str(out))
        assert code == 0
        rows = csv_rows(out)
        ids = ["aa", "ar1-n6-rho0.5", "ar1-n6-rho0.7", "ar1-n6-rho0.9", "zz"]
        assert [r["matrix_id"] for r in rows] == [i for i in ids for _ in range(2)]
        assert [r["method"] for r in rows] == ["none", "precog"] * len(ids)

    @pytest.mark.parametrize("flags, shared", [
        pytest.param(["--family", "ar1", "--rho", "0.9,0.90"], "ar1-n6-rho0.9",
                     id="family-values"),
        pytest.param(["--matrix", "a/x.txt", "--matrix", "b/x.txt"], "x", id="file-stems"),
        pytest.param(["--family", "ar1", "--seed", "3,3"], "ar1-n6-rho0.9#s3", id="seeds"),
    ])
    def test_shared_matrix_id_is_usage_error(self, tmp_path, capsys, flags, shared):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "bench", "--n", "6", *flags, "--out", str(out))
        assert_usage_error(code, err, repr(shared))
        assert not out.exists()

    def test_values_that_g_rounds_together_get_two_ids(self, tmp_path, capsys):
        # :g writes both as 0.9; the id and the params cell keep every digit of the second
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "bench", "--family", "ar1", "--n", "6", "--rho", "0.9,0.9000001",
                         "--methods", "none", "--max-iter", "5", "--out", str(out))
        assert code == 0
        rows = [r for r in csv_rows(out) if r["method"] == "none"]
        assert [r["matrix_id"] for r in rows] == ["ar1-n6-rho0.9", "ar1-n6-rho0.9000001"]
        assert [r["params"] for r in rows] == ["rho=0.9", "rho=0.9000001"]

    def test_ar2_runs_the_product_of_both_poles(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "bench", "--family", "ar2", "--n", "6",
                         "--rho1", "0.9,0.8", "--rho2", "0.5,0.3", "--methods", "none",
                         "--max-iter", "10", "--seed", "1", "--out", str(out))
        assert code == 0
        params = [r["params"] for r in csv_rows(out) if r["method"] == "none"]
        assert params == [f"rho1={a};rho2={b}" for a in ("0.8", "0.9") for b in ("0.3", "0.5")]


# name -> (command, config files, flags; {0}, {1} name the files, expected attrs or error)
CONFIG_CASES = {
    "equals-form": ("bench", ["rho = 0.5"], ["--config={0}"], {"rho": [0.5]}),
    "abbreviation": ("bench", ["rho = 0.5"], ["--conf", "{0}"], {"rho": [0.5]}),
    "repeated-key": ("bench", ["rho = 0.5\nrho = 0.6"], ["--config", "{0}"], {"rho": [0.6]}),
    "later-file-wins": ("bench", ["rho = 0.5\nn = 5", "rho = 0.7"],
                        ["--config", "{0}", "--config", "{1}"], {"rho": [0.7], "n": 5}),
    "flag-wins": ("bench", ["rho = 0.5\nn = 5", "rho = 0.7"],
                  ["--rho", "0.8", "--config", "{0}", "--config", "{1}"],
                  {"rho": [0.8], "n": 5}),
    "negative-list": ("bench", ["rho2 = -0.3,0.3"], ["--config", "{0}"], {"rho2": [-0.3, 0.3]}),
    "seed-list": ("bench", ["seed = 0,1"], ["--config", "{0}"], {"seed": [0, 1]}),
    "out": ("gen", ["out = g.txt"], ["--config", "{0}"], {"out": "g.txt"}),
    "out-u": ("precondition", ["out_u = u.txt"], ["--config", "{0}"], {"out_u": "u.txt"}),
    "matrix": ("bench", ["matrix = m.txt"], ["--config", "{0}", "--matrix", "k.txt"],
               {"matrix": ["m.txt", "k.txt"]}),
    "band-exit-true": ("bench", ["band_exit = true"], ["--config", "{0}"],
                       "unrecognized arguments: --band-exit"),
    "band-exit-false": ("bench", ["band_exit = false"], ["--config", "{0}"],
                        "unrecognized arguments: --band-exit"),
    "timing-yes": ("bench", ["timing = yes"], ["--config", "{0}"], {"timing": True}),
    "timing-false": ("bench", ["timing = false"], ["--config", "{0}"], {"timing": False}),
    "no-equals": ("bench", ["rho 0.5"], ["--config", "{0}"], "config line without '='"),
    "not-utf8": ("bench", [NOT_UTF8], ["--config", "{0}"], "is not UTF-8 text"),
    "unknown-key": ("bench", ["colour = blue"], ["--config", "{0}"],
                    "unrecognized arguments: --colour=blue"),
}


@pytest.mark.parametrize("command, files, flags, expect",
                         [pytest.param(*case, id=name) for name, case in CONFIG_CASES.items()])
def test_config_file(tmp_path, capsys, monkeypatch, command, files, flags, expect):
    """Config lines parse like --key=value flags placed before the explicit ones."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(args) or 0)
    paths = []
    for i, text in enumerate(files):
        paths.append(tmp_path / f"{i}.cfg")
        paths[-1].write_text(text + "\n", encoding="latin-1")
    code, _, err = run(capsys, command, "--family", "ar1",
                       *(f.format(*paths) for f in flags))
    if isinstance(expect, str):  # rejected: exit 2 with one error line
        assert code == 2 and err.count("error: ") == 1 and expect in err
        assert not seen
        return
    assert code == 0
    assert {k: getattr(seen[0], k) for k in expect} == expect


LEARNING_FLAG_CASES = {
    "mu": (["--mu", "2"], "mu"),
    "eps2": (["--eps2", "1"], "eps2"),
    "max-iter": (["--max-iter", "0"], "max_iter"),
    "band": (["--topology", "banded", "--band", "0"], "band"),
    "n": (["--n", "1"], "n must be at least 2"),  # a flag at fault, unlike a 1 x 1 file
}


@pytest.mark.parametrize("command, flags, needle", [
    *(pytest.param(command, flags, needle, id=f"{command}-{name}")
      for command in ("bench", "precondition")
      for name, (flags, needle) in LEARNING_FLAG_CASES.items()),
    # only bench has --omega (the sor/ssor relaxation factor)
    pytest.param("bench", ["--omega", "3"], "omega", id="bench-omega"),
])
def test_bad_hyperparameter_flag_is_usage_error(tmp_path, capsys, command, flags, needle):
    out = tmp_path / "out.txt"
    out_flag = "--out" if command == "bench" else "--out-u"
    code, _, err = run(capsys, command, "--family", "ar1", "--n", "6", *flags,
                       out_flag, str(out))
    assert_usage_error(code, err, needle)
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "precondition"])
@pytest.mark.parametrize("flag, value", [
    ("--beta", "inf"), ("--beta", "nan"), ("--eps1", "nan"), ("--eps1", "inf"),
    ("--tol", "nan"), ("--tol", "inf"),
])
def test_non_finite_hyperparameter_is_usage_error(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out.txt"
    out_flag = "--out" if command == "bench" else "--out-u"
    code, _, err = run(capsys, command, "--family", "ar1", "--n", "6", "--rho", "0.5",
                       flag, value, out_flag, str(out))
    assert_usage_error(code, err, f"{flag[2:]} must be finite")
    assert not out.exists()


MATRIX_FLAG_CASES = {
    "ar1-n": (["--family", "ar1", "--n", "0"], "n must be positive"),
    "ar1-rho": (["--family", "ar1", "--rho", "1.5"], "rho"),
    "sparse-pd-density": (["--family", "sparse-pd", "--density", "2"], "density"),
    "hilbert-alpha": (["--family", "hilbert", "--alpha", "-5"], "alpha"),
    "random-pd-reg": (["--family", "random-pd", "--reg", "-1"], "reg"),
    "ar2-rho1": (["--family", "ar2", "--rho1", "1.0"], "poles"),
    "ar2-rho1-nan": (["--family", "ar2", "--n", "4", "--rho1", "nan"], "rho1 must be finite"),
    "hilbert-alpha-nan": (["--family", "hilbert", "--n", "4", "--alpha", "nan"],
                          "alpha must be finite"),
    "random-pd-reg-inf": (["--family", "random-pd", "--n", "4", "--reg", "inf"],
                          "reg must be finite"),
    "sparse-pd-shift-margin-nan": (["--family", "sparse-pd", "--n", "4", "--shift-margin", "nan"],
                                   "shift_margin must be finite"),
}
OUT_FLAG = {"gen": "--out", "bench": "--out", "precondition": "--out-u"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, flags, needle", [
    pytest.param(command, flags, needle, id=f"{command}-{name}")
    for command in OUT_FLAG
    for name, (flags, needle) in MATRIX_FLAG_CASES.items()
])
def test_bad_matrix_family_flag_is_usage_error(tmp_path, capsys, command, flags, needle):
    out = tmp_path / "out.txt"
    code, _, err = run(capsys, command, *flags, OUT_FLAG[command], str(out))
    assert_usage_error(code, err, needle)
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    pytest.param(["gen", "--family", "klein-bottle", "--out", "out.txt"], "--family",
                 id="gen-family"),
    pytest.param(["bench", "--family", "ar1", "--rho", "abc", "--out", "out.csv"], "--rho",
                 id="bench-rho"),
    pytest.param(["bench", "--family", "ar1", "--topology", "ring", "--out", "out.csv"],
                 "--topology", id="bench-topology"),
    pytest.param(["bench", "--family", "ar1", "--colour", "blue", "--out", "out.csv"],
                 "--colour", id="unknown-flag"),
    pytest.param([], "command", id="no-command"),
    *(pytest.param([command, "--family", "ar1", "--band-exit", out_flag, "out.txt"],
                   "--band-exit", id=f"{command}-band-exit")
      for command, out_flag in (("bench", "--out"), ("precondition", "--out-u"))),
    pytest.param(["lms", "--band-exit", "--out", "out.txt"], "--band-exit", id="lms-band-exit"),
])
def test_argparse_error_is_one_error_line(tmp_path, capsys, monkeypatch, argv, needle):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert_usage_error(code, err, needle)
    assert out == ""
    assert not any(tmp_path.iterdir())


# each command with flags that would write out.txt in the working directory
SEED_COMMANDS = {
    "gen": ["gen", "--family", "random-pd", "--n", "4", "--out", "out.txt"],
    "bench": ["bench", "--family", "sparse-pd", "--n", "4", "--max-iter", "5", "--out", "out.txt"],
    "precondition": ["precondition", "--family", "random-pd", "--n", "4", "--max-iter", "5",
                     "--out-u", "out.txt"],
    "lms": ["lms", "--taps", "4", "--run-len", "50", "--out", "out.txt"],
    "gradcheck": ["gradcheck", "--n", "3"],
}


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("flag_seed, env_seed, needle", [
    pytest.param("-1", None, "--seed: seed must be nonnegative", id="flag-negative"),
    pytest.param(str(2**64), None, "[0, 2**64)", id="flag-too-large"),
    pytest.param(None, "-1", "PRECOG_SEED: seed must be nonnegative", id="env-negative"),
])
def test_seed_out_of_range_is_usage_error(tmp_path, capsys, monkeypatch, command,
                                          flag_seed, env_seed, needle):
    monkeypatch.chdir(tmp_path)
    if env_seed is not None:
        monkeypatch.setenv("PRECOG_SEED", env_seed)
    flags = [] if flag_seed is None else ["--seed", flag_seed]
    code, _, err = run(capsys, *SEED_COMMANDS[command], *flags)
    assert_usage_error(code, err, needle)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [c for c in SEED_COMMANDS if c not in ("bench", "lms")])
def test_seed_list_outside_bench_is_usage_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *SEED_COMMANDS[command], "--seed", "0,1")
    assert_usage_error(code, err, f"{command} takes one seed")
    assert not any(tmp_path.iterdir())


# matrices that build but whose smallest eigenvalue is negative in floating point; the tests
# below turn warnings into errors, as pytest would otherwise keep a warning off stderr
NON_SPD_FAMILIES = {
    "hilbert14": ["--family", "hilbert", "--n", "14"],
    "ar2-close-poles": ["--family", "ar2", "--rho1", "0.99999", "--rho2", "0.99998", "--n", "50"],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["gen", "precondition"])
@pytest.mark.parametrize("family", NON_SPD_FAMILIES)
def test_non_spd_family_is_still_numerical_failure(tmp_path, capsys, command, family):
    out = tmp_path / "h.txt"
    code, _, err = run(capsys, command, *NON_SPD_FAMILIES[family], OUT_FLAG[command], str(out))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_spd_ar2_bench_writes_status_rows_without_stderr(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, err = run(capsys, "bench", *NON_SPD_FAMILIES["ar2-close-poles"],
                       "--methods", "none", "--max-iter", "5", "--out", str(out))
    assert code == 1
    assert err == ""
    assert "NotPositiveDefiniteError" in out.read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_spd_ar2_lms_without_transform_leaves_stderr_empty(tmp_path, capsys):
    # the untransformed filter never reads R, so nothing checks or reports it
    out = tmp_path / "t.csv"
    code, _, err = run(capsys, "lms", "--signal", "ar2", "--rho1", "0.99999", "--rho2", "0.99998",
                       "--taps", "50", "--run-len", "200", "--transform", "none",
                       "--out", str(out))
    assert code == 0
    assert err == ""
    assert out.exists()


# ar2(300, 0.9999, 0.9998) under the DCT: G = U^T R U passes its symmetry check, while S,
# G scaled to unit diagonal, amplifies G's rounding by 1/min diag(G) = 1.3e12; only G is checked
CLOSE_POLES = ["--family", "ar2", "--rho1", "0.9999", "--rho2", "0.9998", "--n", "300"]
# finite, exactly symmetric and positive definite, but every congruence of it overflows
HUGE = "2\n1.7e308 1e308\n1e308 1.7e308\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_close_pole_ar2_bench_scores_every_row(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, _, err = run(capsys, "bench", *CLOSE_POLES, "--max-iter", "20",
                       "--methods", "dct,dft,none", "--out", str(out))
    assert code == 0 and err == ""
    assert [r["status"] for r in csv_rows(out)] == ["ok"] * 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_congruence_is_a_status_row_without_stderr(tmp_path, capsys):
    matrix, out = tmp_path / "huge.txt", tmp_path / "b.csv"
    matrix.write_text(HUGE)
    code, _, err = run(capsys, "bench", "--matrix", str(matrix), "--methods", "dft,dct,none",
                       "--max-iter", "5", "--out", str(out))
    assert code == 0 and err == ""
    rows = {r["method"]: r for r in csv_rows(out)}
    # each overflowing congruence, the DFT's F^H R F as the DCT's U^T R U, is non-finite input
    assert rows["dft"]["status"] == rows["dct"]["status"] == "InvalidInputError"
    assert rows["dft"]["cond_method"] == ""
    assert rows["none"]["status"] == "ok"


# exactly symmetric and positive definite (cond 3) at subnormal scale: 1/sqrt(d_i d_j) overflows
TINY = "2\n2e-310 1e-310\n1e-310 2e-310\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, code, statuses", [
    pytest.param(HUGE, 0, {"dct": "InvalidInputError", "dft": "InvalidInputError",
                           "gauss-seidel": "NumericallySingularError",
                           "ilu0": "NumericallySingularError", "jacobi": "ok", "none": "ok",
                           "precog": "InvalidInputError", "sor": "ok",
                           "ssor": "InvalidInputError"}, id="huge"),
    pytest.param(TINY, 1, dict.fromkeys(METHOD_NAMES, "InvalidInputError"), id="tiny"),
])
def test_every_method_at_extreme_scale_keeps_stderr_empty(tmp_path, capsys, text, code,
                                                          statuses):
    # an overflowing payload or unit-diagonal scaling is a status row, not a numpy warning
    matrix, out = tmp_path / "m.txt", tmp_path / "b.csv"
    matrix.write_text(text)
    got = run(capsys, "bench", "--matrix", str(matrix), "--max-iter", "5", "--out", str(out))
    assert got[0] == code and got[2] == ""
    assert {r["method"]: r["status"] for r in csv_rows(out)} == statuses


def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a mocked allocation failure: the real one would need tens of GiB
    def too_big(n, rho):
        raise MemoryError(f"Unable to allocate array with shape ({n}, {n})")

    monkeypatch.setitem(FAMILIES, "ar1", (too_big, ("rho",), False))
    out = tmp_path / "m.txt"
    code, _, err = run(capsys, "gen", "--family", "ar1", "--n", "100000", "--out", str(out))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "100000" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, needle", [
    pytest.param("gen", [], "gen needs --family", id="gen"),
    pytest.param("precondition", [], "precondition needs --matrix or --family",
                 id="precondition"),
    pytest.param("bench", [], "bench needs --matrix and/or --family", id="bench"),
    # gen and precondition build one matrix, so a family flag takes one value
    pytest.param("gen", ["--family", "ar1", "--rho", "0.5,0.9"], "--rho", id="gen-list"),
    pytest.param("precondition", ["--family", "ar1", "--rho", "0.5,0.9"], "--rho",
                 id="precondition-list"),
    pytest.param("precondition", ["--family", "sparse-pd", "--shift-margin", "0.1,0.2"],
                 "--shift-margin", id="precondition-other-family-list"),
    # precondition builds one matrix, so two sources are one too many
    pytest.param("precondition", ["--matrix", "{m}", "--matrix", "{m}"],
                 "precondition takes one matrix, got 2", id="precondition-two-files"),
    pytest.param("precondition", ["--matrix", "{m}", "--family", "hilbert"],
                 "precondition takes one matrix, got 2", id="precondition-file-and-family"),
])
def test_matrix_source_is_usage_error(tmp_path, capsys, command, flags, needle):
    matrix = tmp_path / "m.txt"
    save_matrix(ar1_autocorr(4, 0.5), matrix)
    out = tmp_path / "out.txt"
    flags = [flag.format(m=matrix) for flag in flags]
    code, _, err = run(capsys, command, *flags, OUT_FLAG[command], str(out))
    assert_usage_error(code, err, needle)
    assert not out.exists()


@pytest.mark.parametrize("text, needle", [
    pytest.param("abc\n1 2\n", "invalid literal for int()", id="header"),
    pytest.param("2\n1 x\n0 1\n", "could not convert string to float", id="entry"),
    pytest.param("2\n1 0\n0\n", "is not 2 x 2", id="ragged"),
    pytest.param("0\n", "n must be positive, got 0", id="zero"),
    pytest.param("-1\n", "n must be positive, got -1", id="negative"),
    pytest.param(NOT_UTF8, "can't decode byte 0xff", id="not-utf8"),
    pytest.param("", "empty matrix file", id="empty"),
    pytest.param("3\n1 0 0\n0 1 0\n", "expected 3 rows", id="too-few-rows"),
])
@pytest.mark.parametrize("command", ["precondition", "bench"])
def test_malformed_matrix_file_is_one_error_line(tmp_path, capsys, command, text, needle):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="latin-1")
    out = tmp_path / "out.txt"
    code, _, err = run(capsys, command, "--matrix", str(path), OUT_FLAG[command], str(out))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err and needle in err
    assert not out.exists()


def test_bench_quotes_a_matrix_id_with_a_comma(tmp_path, capsys):
    matrix = tmp_path / "x,y.txt"
    save_matrix(ar1_autocorr(4, 0.5), matrix)
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "bench", "--matrix", str(matrix), "--max-iter", "20",
                     "--out", str(out))
    assert code == 0
    header, *rows = csv.reader(out.read_text().splitlines())
    assert header == BENCH_HEADER.split(",") and len(rows) == len(METHOD_NAMES)
    assert all(len(row) == len(header) for row in rows)
    assert {row[0] for row in rows} == {"x,y"}


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--seed", "1")
        assert code == 0
        canonical = float(stdout.split("canonical dE/dU vs finite differences: rel err = ")[1].split()[0])
        pert = float(stdout.split("perturbation dEN/dw vs finite differences: rel err = ")[1].split()[0])
        assert canonical <= 1e-6
        assert pert <= 1e-4
        assert "PASS" in stdout

    def test_n_cap_enforced(self, capsys):
        code, _, _ = run(capsys, "gradcheck", "--n", "11")
        assert code == 2


class TestPrecondition:
    def test_writes_u_and_history(self, tmp_path, capsys):
        out_u = tmp_path / "u.txt"
        hist = tmp_path / "h.csv"
        code, stdout, _ = run(
            capsys, "precondition", "--family", "ar1", "--n", "8", "--rho", "0.9",
            "--max-iter", "60", "--seed", "4", "--topology", "banded",
            "--out-u", str(out_u), "--history", str(hist),
        )
        assert code == 0
        U = load_matrix(out_u)
        assert orthonormality_error(U) <= 1e-8
        lines = hist.read_text().splitlines()
        assert lines[0] == "iteration,cost,split_cond,grad_norm"
        assert len(lines) >= 2
        assert "learned cond=" in stdout

    def test_numerical_failure_exit_1(self, tmp_path, capsys):
        # non-PD input must exit 1 with a clear message
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1.0 0.0\n0.0 -1.0\n")
        code, _, err = run(
            capsys, "precondition", "--matrix", str(bad), "--out-u",
            str(tmp_path / "u.txt"),
        )
        assert code == 1
        assert "eigenvalue" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_is_one_error_line(self, tmp_path, capsys):
        big = tmp_path / "big200.txt"
        big.write_text(BIG200)
        out_u = tmp_path / "u.txt"
        code, _, err = run(capsys, "precondition", "--matrix", str(big), "--max-iter", "20",
                           "--out-u", str(out_u))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: non-finite cost")
        assert not out_u.exists()

    def test_missing_matrix_file_is_usage_error(self, tmp_path, capsys):
        out_u = tmp_path / "u.txt"
        code, _, err = run(capsys, "precondition", "--matrix",
                           str(tmp_path / "absent.txt"), "--out-u", str(out_u))
        assert_usage_error(code, err, "absent.txt")
        assert not out_u.exists()

    def test_unwritable_history_leaves_no_u_file(self, tmp_path, capsys):
        out_u = tmp_path / "u.txt"
        hist = tmp_path / "absent" / "h.csv"
        code, _, err = run(capsys, "precondition", "--family", "ar1", "--n", "3",
                           "--max-iter", "5", "--out-u", str(out_u), "--history", str(hist))
        assert_usage_error(code, err, "h.csv")
        assert not out_u.exists() and not hist.exists()

    @pytest.mark.parametrize("history", ["same.csv", "sub/../same.csv", "{abs}"],
                             ids=["same", "dot-dot", "absolute"])
    def test_history_naming_the_u_file_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       history):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, _, err = run(capsys, "precondition", "--family", "ar1", "--n", "3",
                           "--out-u", "same.csv",
                           "--history", history.format(abs=tmp_path / "same.csv"))
        assert_usage_error(code, err, "--history and --out-u name one file")
        assert not (tmp_path / "same.csv").exists()

    def test_overflowing_weight_shrink_is_divergence(self, tmp_path, capsys):
        # every flag is valid: 1 - 2 beta overflows to -inf inside optimize
        out_u = tmp_path / "u.txt"
        code, _, err = run(capsys, "precondition", "--family", "ar1", "--n", "4", "--rho", "0.5",
                           "--topology", "banded", "--beta", "1e308", "--out-u", str(out_u))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and "iteration 1" in err
        assert not out_u.exists()

    def test_one_by_one_file_is_numerical_failure(self, tmp_path, capsys):
        one = tmp_path / "g1.txt"
        assert run(capsys, "gen", "--family", "ar1", "--n", "1", "--out", str(one))[0] == 0
        out_u = tmp_path / "u.txt"
        code, _, err = run(capsys, "precondition", "--matrix", str(one), "--out-u", str(out_u))
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: ") and "n must be at least 2" in err
        assert not out_u.exists()

    def test_bad_band_outranks_a_one_by_one_file(self, tmp_path, capsys):
        one = tmp_path / "g1.txt"
        assert run(capsys, "gen", "--family", "ar1", "--n", "1", "--out", str(one))[0] == 0
        out_u = tmp_path / "u.txt"
        code, _, err = run(capsys, "precondition", "--matrix", str(one), "--topology", "banded",
                           "--band", "0", "--out-u", str(out_u))
        assert_usage_error(code, err, "band")
        assert not out_u.exists()


class TestLms:
    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(
            capsys, "lms", "--taps", "8", "--step", "0.05", "--signal", "white",
            "--run-len", "400", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,e2,misalignment_db"
        assert len(lines) == 401

    @pytest.mark.parametrize("transform", ["none", "dct", "precog"])
    def test_each_transform_writes_one_trace(self, tmp_path, capsys, transform):
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(capsys, "lms", "--transform", transform, "--taps", "6",
                              "--max-iter", "10", "--run-len", "500", "--out", str(out))
        assert code == 0
        header, *rows = out.read_text().splitlines()
        assert header == "k,e2,misalignment_db"
        assert len(rows) == 500
        assert stdout.startswith(f"lms transform={transform} signal=ar1 iterations_to_-20dB=")

    def test_seed_list_writes_first_seed_trace(self, tmp_path, capsys):
        flags = ["lms", "--transform", "dct", "--taps", "8", "--run-len", "400"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run(capsys, *flags, "--seed", "0", "--out", str(one))[0] == 0
        assert run(capsys, *flags, "--seed", "0,1", "--out", str(two))[0] == 0
        assert two.read_bytes() == one.read_bytes()

    def test_seed_list_reports_median_min_max(self, tmp_path, capsys):
        # at this length some seeds never reach -20 dB; each counts as run_len + 1
        run_len, seeds = 600, range(6)
        spec = SignalSpec("ar1", rho=0.9)
        hits = []
        for seed in seeds:
            plant = np.random.default_rng(seed).standard_normal(8)
            plant /= np.linalg.norm(plant)
            trace = system_id_experiment(plant, spec, 30.0, FilterConfig(8, 0.05), run_len, seed)
            hit = trace.iterations_to_threshold(-20.0)
            hits.append(run_len + 1 if hit is None else hit)
        assert run_len + 1 in hits and min(hits) < run_len
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(capsys, "lms", "--taps", "8", "--step", "0.05",
                              "--run-len", str(run_len), "--seed", ",".join(map(str, seeds)),
                              "--out", str(out))
        assert code == 0
        assert stdout == (
            f"lms transform=none signal=ar1 seeds=6 "
            f"median_iterations_to_-20dB={statistics.median(hits):g} "
            f"(min {min(hits)}, max {max(hits)}) -> {out}\n")

    @pytest.mark.parametrize("seeds, extra, median, lo, hi", [
        # per-seed counts 404 420 421 423 431 432 455 458 471 487: halfway between 431 and 432
        ("0,1,2,3,4,5,6,7,8,9", [], "431.5", 404, 487),
        ("0,1", ["--run-len", "3000"], "459", 431, 487),  # a whole median prints no decimal
    ])
    def test_even_seed_list_prints_the_exact_median(self, tmp_path, capsys, seeds, extra,
                                                   median, lo, hi):
        out = tmp_path / "trace.csv"
        code, stdout, _ = run(capsys, "lms", "--transform", "dct", "--seed", seeds,
                              "--topology", "banded", "--max-iter", "500", *extra,
                              "--out", str(out))
        assert code == 0
        assert stdout == (f"lms transform=dct signal=ar1 seeds={len(seeds.split(','))} "
                          f"median_iterations_to_-20dB={median} (min {lo}, max {hi}) -> {out}\n")

    def test_precog_learns_once_with_first_seed(self, tmp_path, capsys, monkeypatch):
        learned = []

        def spy(R, topo, hp):
            learned.append(hp.seed)
            return optimize(R, topo, hp)

        monkeypatch.setattr(cli, "optimize", spy)
        flags = ["lms", "--transform", "precog", "--taps", "6", "--max-iter", "10",
                 "--run-len", "300"]
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        assert run(capsys, *flags, "--seed", "3,0", "--out", str(both))[0] == 0
        assert learned == [3]
        assert run(capsys, *flags, "--seed", "3", "--out", str(alone))[0] == 0
        assert both.read_bytes() == alone.read_bytes()

    def test_dct_transform_run(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "lms", "--taps", "8", "--step", "0.05", "--signal", "ar1",
            "--rho", "0.9", "--transform", "dct", "--run-len", "400",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0

    @pytest.mark.parametrize("flags, needle", [
        pytest.param(["--taps", "0"], "taps", id="taps"),
        pytest.param(["--step", "-1"], "step", id="step"),
        pytest.param(["--step", "nan"], "step", id="step-nan"),
        pytest.param(["--step", "inf"], "step", id="step-inf"),
        pytest.param(["--run-len", "0"], "run_len", id="run-len"),
        pytest.param(["--rho", "1.5"], "rho", id="rho"),
        pytest.param(["--signal", "ar2", "--rho1", "0.5", "--rho2", "0.5"], "rho1 == rho2",
                     id="ar2-equal-poles"),
        pytest.param(["--noise-db", "nan"], "noise_db", id="noise-db-nan"),
        pytest.param(["--noise-db", "inf"], "noise_db", id="noise-db-inf"),
        pytest.param(["--noise-db=-inf"], "noise_db", id="noise-db-minus-inf"),
        # 10^(-noise_db/10) overflowed with an OverflowError traceback
        pytest.param(["--noise-db=-4000"], "noise_db", id="noise-db-scale-overflow"),
        # a repeated seed was run and counted twice in the median
        pytest.param(["--seed", "0,3,0"], "seed 0", id="repeated-seed"),
    ])
    def test_bad_flag_is_usage_error_before_learning(self, tmp_path, capsys, monkeypatch,
                                                     flags, needle):
        def no_learning(*args):
            raise AssertionError("optimize ran before the flags were checked")

        monkeypatch.setattr(cli, "optimize", no_learning)
        out = tmp_path / "trace.csv"
        code, _, err = run(capsys, "lms", "--transform", "precog", "--taps", "8",
                           "--run-len", "400", *flags, "--out", str(out))
        assert_usage_error(code, err, needle)
        assert not out.exists()

    def test_trace_csv_bytes(self, tmp_path, capsys, monkeypatch):
        # header, then k and repr(float) cells; zero misalignment is -inf dB
        trace = MseTrace(e2=np.array([1.0, 0.25, 1e-300]),
                         misalignment=np.array([1.0, 0.1, 0.0]))
        monkeypatch.setattr(cli, "system_id_experiment", lambda *args: trace)
        out = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "lms", "--taps", "4", "--run-len", "3", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (
            b"k,e2,misalignment_db\n0,1.0,0.0\n1,0.25,-10.0\n2,1e-300,-inf\n")

    def test_near_unit_pole_precog_run_exits_0(self, tmp_path, capsys):
        # G = U^T R U is symmetric to its rounding; S, scaled to unit diagonal, is not
        out = tmp_path / "trace.csv"
        code, _, err = run(capsys, "lms", "--taps", "3", "--rho", "0.9999999999", "--run-len",
                           "200", "--transform", "precog", "--max-iter", "5", "--out", str(out))
        assert code == 0 and err == ""
        assert len(out.read_text().splitlines()) == 201

    def test_divergent_step_exits_1_without_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "lms", "--taps", "8", "--step", "5", "--signal", "white",
            "--run-len", "400", "--seed", "2", "--out", str(out),
        )
        assert code == 1
        assert err.count("\n") == 1 and "diverged" in err
        assert not out.exists()

    def test_failing_later_seed_writes_no_trace(self, tmp_path, capsys, monkeypatch):
        def fail_on_seed_1(*args):
            if args[-1] == 1:
                raise DivergenceError("filter diverged")
            return system_id_experiment(*args)

        monkeypatch.setattr(cli, "system_id_experiment", fail_on_seed_1)
        out = tmp_path / "trace.csv"
        code, _, err = run(capsys, "lms", "--taps", "4", "--run-len", "50", "--seed", "0,1",
                           "--out", str(out))
        assert code == 1
        assert err.count("\n") == 1 and "diverged" in err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    code, out, err = run(capsys, flag)
    assert code == 0
    assert out and not err


@pytest.mark.parametrize("command", ["bench", "precondition", "lms"])
def test_eps_flags_help_names_no_band(capsys, command):
    # eps1 and eps2 weight the cost's diagonal term and set no band
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert "--eps1" in out and "eps1^2 + eps2^2" in " ".join(out.split())
    assert "half-width" not in out


def test_write_csv_cells(tmp_path, capsys):
    # repr(np.float64(0.1)) is "np.float64(0.1)" under numpy 2 and "0.1" under numpy 1
    out = tmp_path / "t.csv"
    cli._write_csv(str(out), "a,b,c,d",
                   [(np.float64(0.1), 1.5, None, 3), ("x", np.float64(-np.inf), "", np.int64(2))])
    assert out.read_text() == "a,b,c,d\n0.1,1.5,,3\nx,-inf,,2\n"
    cli._write_csv("", "a", [(np.float32(0.5),)])
    assert capsys.readouterr().out == "a\n0.5\n"

import numpy as np
import pytest

from precog.baselines import none_cond
from precog.cli import BENCH_HEADER, main
from precog.errors import IluBreakdownError
from precog.matgen import ar1_autocorr, hilbert, load_matrix
from precog.spectral import cond_spd, orthonormality_error


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, err, needle):
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert needle in err


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

    def test_bad_method_is_numerical_failure_exit(self, tmp_path, capsys, matrix_file):
        code, _, err = run(
            capsys, "bench", "--matrix", str(matrix_file), "--methods", "qr-magic",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "qr-magic" in err

    def test_failed_cell_gets_status_row(self, tmp_path, capsys, monkeypatch):
        # force one method to break and check the row reports it
        import precog.cli as cli_mod

        def boom(A):
            raise IluBreakdownError("zero pivot at index 0")

        monkeypatch.setattr(cli_mod, "ilu0_precond", boom)
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

    def test_config_without_path_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "bench", "--family", "ar1", "--config")
        assert_usage_error(code, err, "--config")


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--seed", "1")
        assert code == 0
        canonical = float(stdout.split("canonical dE/dU vs finite differences: rel err = ")[1].split()[0])
        pert = float(stdout.split("perturbation dEN/dw vs finite differences: rel err = ")[1].split()[0])
        assert canonical <= 1e-6
        assert pert <= 1e-4
        assert "paper-chain" in stdout
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

    def test_missing_matrix_file_is_usage_error(self, tmp_path, capsys):
        out_u = tmp_path / "u.txt"
        code, _, err = run(capsys, "precondition", "--matrix",
                           str(tmp_path / "absent.txt"), "--out-u", str(out_u))
        assert_usage_error(code, err, "absent.txt")
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

    def test_dct_transform_run(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "lms", "--taps", "8", "--step", "0.05", "--signal", "ar1",
            "--rho", "0.9", "--transform", "dct", "--run-len", "400",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0

    def test_divergent_step_exits_1_without_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "lms", "--taps", "8", "--step", "5", "--signal", "white",
            "--run-len", "400", "--seed", "2", "--out", str(out),
        )
        assert code == 1
        assert err.count("\n") == 1 and "diverged" in err
        assert not out.exists()

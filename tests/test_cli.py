import csv
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rarelogit import Dataset, cli, substream
from rarelogit.cli import load_covariates, load_dataset, main, save_dataset


def run_cli(args):
    return main([str(a) for a in args])


def read_result(path):
    """Parse a result CSV into (comment, header, rows-as-strings)."""
    lines = path.read_text().splitlines()
    comment = lines[0]
    rows = list(csv.reader(lines[1:]))
    return comment, rows[0], rows[1:]


def fields(path):
    _, header, rows = read_result(path)
    assert header == ["field", "value"]
    return dict(rows)


@pytest.fixture()
def balanced_csv(tmp_path):
    path = tmp_path / "balanced.csv"
    data = Dataset(x=np.zeros((10, 1)), y=[1] * 4 + [0] * 6)
    save_dataset(str(path), data)
    return path


@pytest.fixture()
def mixed_csv(tmp_path):
    rng = substream(2024)
    x = rng.standard_normal((120, 1))
    y = (rng.random(120) < 0.3).astype(int)
    y[:2] = [1, 0]
    path = tmp_path / "mixed.csv"
    save_dataset(str(path), Dataset(x=x, y=y))
    return path


class TestDatasetIO:
    def test_round_trip_bitwise(self, tmp_path):
        rng = substream(1)
        data = Dataset(x=rng.standard_normal((37, 3)), y=(rng.random(37) < 0.4).astype(int))
        path = tmp_path / "d.csv"
        save_dataset(str(path), data)
        back = load_dataset(str(path))
        assert_array_equal(back.x, data.x)
        assert_array_equal(back.y, data.y)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_dataset(str(path))

    def test_fractional_labels_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("y,x1\n0.5,1.0\n1.9,2.0\n0,3.0\n")
        with pytest.raises(ValueError):
            load_dataset(str(path))
        code = run_cli(["fit", "--data", path, "--estimator", "full", "--out", tmp_path / "o.csv"])
        assert code == 2

    def test_covariate_loader(self, tmp_path):
        path = tmp_path / "xs.csv"
        path.write_text("x1\n1.5\n-2.25\n")
        assert_array_equal(load_covariates(str(path)), [[1.5], [-2.25]])

    # row layouts both loaders accept; each body holds the rows (1, 0.5) and (0, 2)
    LAYOUTS = {
        "crlf": "1,0.5\r\n0,2\r\n",
        "blank lines": "\n1,0.5\n\n\n0,2\n\n",
        "no final newline": "1,0.5\n0,2",
        "spaces around cells": " 1 ,  0.5\n0 , 2 \n",
        "quoted cells": '1,"0.5"\n"0","2"\n',
    }
    # one bad row among good ones: each must be an input error
    MALFORMED = {
        "comment row": "1,0.5\n# note\n0,2\n",
        "ragged row": "1,0.5\n0,2,3\n",
        "empty cell": "1,\n0,2\n",
        "non-numeric cell": "1,0.5\n0,abc\n",
    }

    @pytest.mark.parametrize("body", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_loader_accepts_layout(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_bytes(("y,x1\n" + body).encode())
        data = load_dataset(str(path))
        assert_array_equal(data.x, [[0.5], [2.0]])
        assert_array_equal(data.y, [1, 0])

    @pytest.mark.parametrize("body", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_covariate_loader_accepts_layout(self, tmp_path, body):
        path = tmp_path / "xs.csv"
        path.write_bytes(("x1,x2\n" + body).encode())
        assert_array_equal(load_covariates(str(path)), [[1.0, 0.5], [0.0, 2.0]])

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(str(path))
        path.write_text("x1\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_covariates(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="expected header starting with 'y'"):
            load_dataset(str(path))
        with pytest.raises(ValueError, match="empty file"):
            load_covariates(str(path))

    @pytest.mark.parametrize(
        "body", [*MALFORMED.values(), "1,nan\n0,2\n"], ids=[*MALFORMED, "nan cell"]
    )
    def test_malformed_rows_exit_2(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n" + body)
        with pytest.raises(ValueError):
            load_dataset(str(path))
        code = run_cli(["fit", "--data", path, "--estimator", "full", "--out", tmp_path / "o.csv"])
        assert code == 2

    @pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
    def test_covariate_loader_rejects_malformed_rows(self, tmp_path, body):
        path = tmp_path / "xs.csv"
        path.write_text("x1,x2\n" + body)
        with pytest.raises(ValueError):
            load_covariates(str(path))
        out = tmp_path / "v.csv"
        code = run_cli(["variance", "--kind", "full", "--beta", "1,1", "--xs", path, "--out", out])
        assert code == 2

    def test_nan_covariate_sample_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "xs.csv"
        path.write_text("x1\n1.0\nnan\n2.0\n")
        message = f"{path}: line 3: cells must be finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_covariates(str(path))
        code = run_cli(["variance", "--kind", "full", "--beta", "1", "--xs", path, "--out", tmp_path / "v.csv"])
        assert code == 2
        assert message in capsys.readouterr().err

    # a bad row after a blank line, so the file's line number (4) is neither
    # numpy's 0-based nor its 1-based count of data rows
    BAD_ROWS = {
        "ragged row": ("1,0.5\n\n0,2,3\n", "line 4: expected 2 cells as on the first data line, found 3"),
        "non-numeric cell": ("1,0.5\n\n0,abc\n", "line 4: could not convert string 'abc'"),
    }

    @pytest.mark.parametrize("body, reason", BAD_ROWS.values(), ids=BAD_ROWS.keys())
    @pytest.mark.parametrize("header", ["y,x1", "x1,x2"], ids=["dataset", "covariates"])
    def test_parse_errors_name_the_file_and_line(self, tmp_path, capsys, header, body, reason):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n{body}")
        load = load_dataset if header.startswith("y") else load_covariates
        with pytest.raises(ValueError, match=re.escape(f"{path}: {reason}")) as err:
            load(str(path))
        assert "row" not in str(err.value) and "usecols" not in str(err.value)
        if load is load_dataset:
            argv = ["fit", "--data", path, "--estimator", "full"]
        else:
            argv = ["variance", "--kind", "full", "--beta", "1,1", "--xs", path]
        assert run_cli(argv + ["--out", tmp_path / "o.csv"]) == 2
        assert f"{path}: {reason}" in capsys.readouterr().err

    def test_digit_group_underscores_rejected(self, tmp_path):
        # Python's float("1_0") is 10.0; numpy's parser takes no digit groups
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n1,1_0\n0,2\n")
        with pytest.raises(ValueError):
            load_dataset(str(path))
        code = run_cli(["fit", "--data", path, "--estimator", "full", "--out", tmp_path / "o.csv"])
        assert code == 2


class TestFitCommand:
    def test_full_on_balanced_data(self, balanced_csv, tmp_path):
        out = tmp_path / "fit.csv"
        code = run_cli(["fit", "--data", balanced_csv, "--estimator", "full", "--out", out])
        assert code == 0
        got = fields(out)
        assert float(got["alpha"]) == pytest.approx(math.log(4 / 6), abs=1e-9)
        assert float(got["beta1"]) == 0.0
        assert got["converged"] == "1"

    def test_under_bc_at_pi0_one_matches_full(self, mixed_csv, tmp_path):
        out_full = tmp_path / "full.csv"
        out_bc = tmp_path / "bc.csv"
        run_cli(["fit", "--data", mixed_csv, "--estimator", "full", "--seed", 5, "--out", out_full])
        run_cli(["fit", "--data", mixed_csv, "--estimator", "under-bc", "--pi0", 1.0, "--seed", 5, "--out", out_bc])
        full, bc = fields(out_full), fields(out_bc)
        for key in ("alpha", "beta1", "iterations", "grad_max_norm", "converged", "effective_n"):
            assert full[key] == bc[key]

    def test_seeded_fit_is_byte_identical(self, mixed_csv, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["fit", "--data", mixed_csv, "--estimator", "under-w", "--pi0", 0.1, "--seed", 7]
        run_cli(args + ["--out", out1])
        run_cli(args + ["--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_variance_block_with_alpha_t(self, mixed_csv, tmp_path):
        out = tmp_path / "fit.csv"
        code = run_cli([
            "fit", "--data", mixed_csv, "--estimator", "under-w", "--pi0", 0.5,
            "--seed", 3, "--alpha-t", -1.0, "--out", out,
        ])
        assert code == 0
        got = fields(out)
        assert float(got["c"]) == pytest.approx(math.exp(-1.0) / 0.5, rel=1e-14)
        assert "v_1_1" in got and "v_2_2" in got

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run_cli(["fit", "--data", tmp_path / "nope.csv", "--estimator", "full", "--out", tmp_path / "o.csv"])
        assert code == 2

    def test_missing_rate_exits_2(self, mixed_csv, tmp_path):
        code = run_cli(["fit", "--data", mixed_csv, "--estimator", "under-w", "--out", tmp_path / "o.csv"])
        assert code == 2

    @pytest.mark.parametrize(
        "estimator, message",
        [
            ("under-w", "--estimator under-w requires --pi0"),
            ("obc", "--estimator obc requires --lambda"),
        ],
    )
    def test_missing_rate_message(self, mixed_csv, tmp_path, capsys, estimator, message):
        code = run_cli(["fit", "--data", mixed_csv, "--estimator", estimator, "--out", tmp_path / "o.csv"])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    def test_separated_data_exits_3(self, tmp_path, capsys):
        x = 0.5 * np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        data = Dataset(x=x[:, None], y=(x > 0).astype(int))
        path = tmp_path / "sep.csv"
        save_dataset(str(path), data)
        code = run_cli(["fit", "--data", path, "--estimator", "full", "--out", tmp_path / "o.csv"])
        assert code == 3
        assert "Separation" in capsys.readouterr().err

    def test_overflowing_covariates_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("y,x1\n1,1e200\n0,2e200\n1,-1e200\n0,3e200\n0,5e199\n")
        with np.errstate(over="ignore"):
            code = run_cli(["fit", "--data", path, "--estimator", "full", "--out", tmp_path / "o.csv"])
        assert code == 3
        assert "SingularHessianError" in capsys.readouterr().err

    def test_overflow_reports_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("y,x1\n1,1e200\n0,2e200\n1,-1e200\n0,3e200\n0,5e199\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["fit", "--data", path, "--estimator", "full", "--out", tmp_path / "o.csv"])
        assert code == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("SingularHessianError: ")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--estimator", "obc", "--lambda", 1, "--pi0", 7], "pi0 must be in (0, 1], got 7.0"),
            (["--estimator", "uw", "--pi0", 0.5, "--lambda", -3], "lambda_n must be >= 0, got -3.0"),
            (["--estimator", "full", "--pi0", 0], "pi0 must be in (0, 1], got 0.0"),
        ],
    )
    def test_unused_rate_is_checked(self, mixed_csv, tmp_path, capsys, extra, message):
        code = run_cli(["fit", "--data", mixed_csv, "--out", tmp_path / "o.csv"] + extra)
        assert code == 2
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    def test_rates_checked_before_reading_data(self, tmp_path, capsys):
        code = run_cli([
            "fit", "--data", tmp_path / "nope.csv", "--estimator", "full",
            "--lambda", -1, "--out", tmp_path / "o.csv",
        ])
        assert code == 2
        assert capsys.readouterr().err.strip() == "ValueError: lambda_n must be >= 0, got -1.0"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--estimator", "full", "--tol", "inf"], "tol must be positive and finite, got inf"),
            (["--estimator", "over-w", "--lambda", "inf"], "lambda_n must be finite, got inf"),
        ],
    )
    def test_infinite_setting_is_an_input_error(self, mixed_csv, tmp_path, capsys, extra, message):
        # tol=inf would report the start point as a converged MLE
        code = run_cli(["fit", "--data", mixed_csv, "--out", tmp_path / "o.csv"] + extra)
        assert code == 2
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    def test_constants_checked_before_reading_data(self, tmp_path, capsys):
        code = run_cli([
            "fit", "--data", tmp_path / "nope.csv", "--estimator", "full",
            "--c", -2, "--out", tmp_path / "o.csv",
        ])
        assert code == 2
        assert capsys.readouterr().err.strip() == "ValueError: c must be >= 0, got -2.0"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--estimator", "uw", "--pi0", 0.3, "--c-o", 1], "under-w variance needs c (or --alpha-t with --pi0)"),
            (["--estimator", "full", "--alpha-t", "nan"], "alpha_t must be finite"),
            (["--estimator", "uw", "--pi0", 0.5, "--alpha-t", 800], "limit constant c overflows at alpha_t=800"),
        ],
        ids=["missing-c", "nan-alpha-t", "overflowing-c"],
    )
    def test_covariance_constants_resolved_before_reading_data(self, tmp_path, capsys, extra, message):
        code = run_cli(["fit", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o.csv"] + extra)
        assert code == 2
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    def test_stdout_carries_only_result_path(self, balanced_csv, tmp_path, capsys):
        out = tmp_path / "fit.csv"
        run_cli(["fit", "--data", balanced_csv, "--estimator", "full", "--out", out])
        assert capsys.readouterr().out.strip() == str(out)

    def test_provenance_comment(self, balanced_csv, tmp_path):
        out = tmp_path / "fit.csv"
        run_cli(["fit", "--data", balanced_csv, "--estimator", "full", "--seed", 9, "--out", out])
        comment, _, _ = read_result(out)
        assert comment == "# seed=9 version=0.1.0"


class TestTable1Command:
    def test_small_run_is_well_formed(self, tmp_path):
        out = tmp_path / "t1.csv"
        code = run_cli([
            "table1", "--n", "1000", "--rate", "0.02", "--reps", 3,
            "--seed", 4, "--threads", 1, "--out", out,
        ])
        assert code == 0
        _, header, rows = read_result(out)
        assert header == [
            "n", "rate", "expected_n1", "en1_emse_alpha", "en1_emse_beta",
            "n_emse_alpha", "n_emse_beta", "failed",
        ]
        row = dict(zip(header, rows[0]))
        assert float(row["expected_n1"]) == pytest.approx(20.0)
        # scaled columns are consistent: n column = (n / E n1) * en1 column
        assert float(row["n_emse_alpha"]) == pytest.approx(
            float(row["en1_emse_alpha"]) * 1000 / 20.0, rel=1e-12
        )

    def test_mismatched_lists_exit_2(self, tmp_path):
        code = run_cli([
            "table1", "--n", "1000,2000", "--rate", "0.02", "--reps", 2,
            "--out", tmp_path / "t.csv",
        ])
        assert code == 2

    def test_empty_lists_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run_cli(["table1", "--n", "", "--rate", "", "--reps", 2, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.strip() == "ValueError: --n and --rate list no values"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--sigma", "1e-200"], "mu1=1, mu0=0, sigma=1e-200 induce logistic coefficients that are not finite"),
            (["--sigma", "1e200"], "mu1=1, mu0=0, sigma=1e+200 induce logistic coefficients that are not finite"),
            (["--mu1", "1e200"], "mu1=1e+200, mu0=0, sigma=1 induce logistic coefficients that are not finite"),
            (["--sigma", "inf"], "sigma must be positive and finite"),
            # a later pair's design is checked before the first pair runs
            (["--n", "200,300", "--rate", "0.05,0.7"], "target_rate must be in (0, 0.5)"),
        ],
        ids=["tiny-sigma", "huge-sigma", "huge-mu1", "inf-sigma", "bad-later-rate"],
    )
    def test_bad_design_is_an_input_error(self, tmp_path, capsys, monkeypatch, extra, message):
        def no_replications(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cli, "run_experiment", no_replications)
        out = tmp_path / "t.csv"
        argv = ["table1", "--n", 200, "--rate", 0.05, "--reps", 2, "--threads", 1, "--out", out]
        assert run_cli(argv + extra) == 2
        assert capsys.readouterr().err.splitlines() == [f"ValueError: {message}"]
        assert not out.exists()


class TestSweepCommand:
    def test_pi0_one_rows_equal_baseline(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli([
            "sweep", "--pi0-grid", "0.5,1.0", "--n", 800, "--theta-t=-2,1",
            "--reps", 4, "--seed", 12, "--threads", 1, "--out", out,
        ])
        assert code == 0
        _, header, rows = read_result(out)
        table = {(r[0], r[1]): r[2:] for r in rows}
        base = table[("full", "")]
        assert table[("under-w", "1")] == base
        assert table[("under-bc", "1")] == base

    def test_lambda_zero_rows_equal_baseline(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli([
            "sweep", "--lambda-grid", "0", "--n", 800, "--theta-t=-2,1",
            "--reps", 4, "--seed", 12, "--threads", 1, "--out", out,
        ])
        _, _, rows = read_result(out)
        table = {(r[0], r[1]): r[2:] for r in rows}
        assert table[("over-w", "0")] == table[("full", "")]
        assert table[("over-bc", "0")] == table[("full", "")]

    def test_threads_do_not_change_bytes(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["sweep", "--pi0-grid", "0.5", "--n", 600, "--theta-t=-2,1", "--reps", 6, "--seed", 3]
        run_cli(args + ["--threads", 1, "--out", out1])
        run_cli(args + ["--threads", 2, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_requires_exactly_one_grid(self, tmp_path):
        code = run_cli([
            "sweep", "--pi0-grid", "0.5", "--lambda-grid", "1", "--n", 100,
            "--theta-t=-2,1", "--reps", 1, "--out", tmp_path / "s.csv",
        ])
        assert code == 2

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli([
            "sweep", "--lambda-grid", ",", "--n", 100, "--theta-t=-2,1",
            "--reps", 1, "--threads", 1, "--out", out,
        ])
        assert code == 2
        assert capsys.readouterr().err.strip() == "ValueError: --pi0-grid or --lambda-grid lists no rates"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--n", 500, "--rate", 0.1, "--reps", 2, "--threads", 0],
            ["sweep", "--pi0-grid", 0.5, "--n", 300, "--theta-t=-2,1", "--reps", 2, "--threads", -4],
        ],
        ids=["table1 0", "sweep -4"],
    )
    def test_threads_below_one_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "t.csv"
        code = run_cli(argv + ["--out", out])
        assert code == 2
        threads = argv[-1]
        assert capsys.readouterr().err.strip() == f"ValueError: threads must be >= 1, got {threads}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--theta-t=-2,1", "--law-sd", "1e308"], "sd 1e+308 with mean 0 lets a covariate draw overflow"),
            # used to exit 0 with inf eMSEs and no failed replication
            (["--theta-t=-2,1e300", "--law-sd", "1e10"], "theta and the covariate law let alpha + beta'x overflow"),
        ],
        ids=["huge-sd", "huge-slope"],
    )
    def test_overflowing_design_is_an_input_error(self, tmp_path, capsys, monkeypatch, extra, message):
        def no_replications(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(cli, "run_experiment", no_replications)
        out = tmp_path / "s.csv"
        argv = ["sweep", "--n", 200, "--pi0-grid", 0.5, "--reps", 2, "--threads", 1, "--out", out]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv + extra)
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.splitlines() == [f"ValueError: {message}"]
        assert not out.exists()


class TestVarianceCommand:
    def test_over_weighted_factor(self, tmp_path):
        out = tmp_path / "v.csv"
        code = run_cli([
            "variance", "--kind", "ow", "--beta", "1", "--lambda", 1,
            "--m", 1000, "--seed", 2, "--out", out,
        ])
        assert code == 0
        got = fields(out)
        assert float(got["factor"]) == 1.25

    def test_full_gaussian_analytic(self, tmp_path):
        out = tmp_path / "v.csv"
        run_cli([
            "variance", "--kind", "full", "--beta", "1", "--m", 1000000,
            "--seed", 6, "--out", out,
        ])
        got = fields(out)
        v = np.array([
            [float(got["v_1_1"]), float(got["v_1_2"])],
            [float(got["v_2_1"]), float(got["v_2_2"])],
        ])
        np.testing.assert_allclose(v, [[2.0, -1.0], [-1.0, 1.0]], rtol=0.01)

    def test_c_zero_matches_full(self, tmp_path):
        out_w = tmp_path / "w.csv"
        out_f = tmp_path / "f.csv"
        common = ["--beta", "1", "--m", 20000, "--seed", 8]
        run_cli(["variance", "--kind", "under-w", "--c", 0] + common + ["--out", out_w])
        run_cli(["variance", "--kind", "full"] + common + ["--out", out_f])
        w, f = fields(out_w), fields(out_f)
        for key in ("v_1_1", "v_1_2", "v_2_1", "v_2_2"):
            assert w[key] == f[key]

    def test_covariate_sample_input(self, tmp_path):
        xs_path = tmp_path / "xs.csv"
        xs = substream(10).standard_normal(5000)
        with open(xs_path, "w") as fh:
            fh.write("x1\n")
            fh.writelines(f"{float(v)!r}\n" for v in xs)
        out = tmp_path / "v.csv"
        code = run_cli(["variance", "--kind", "full", "--beta", "1", "--xs", xs_path, "--out", out])
        assert code == 0
        assert float(fields(out)["m"]) == 5000

    @pytest.mark.parametrize(
        "kind, extra, message",
        [
            ("under-w", [], "under-w variance needs c (or --alpha-t with --pi0)"),
            ("ubc", ["--alpha-t", -1], "under-bc variance needs c (or --alpha-t with --pi0)"),
            ("over-w", ["--c", 1], "over-sampling variances need --lambda"),
            ("over-bc", ["--c-o", 1], "over-sampling variances need --lambda"),
            ("obc", ["--lambda", 2], "over-bc variance needs c_o (or --alpha-t with --lambda)"),
        ],
    )
    def test_missing_constant_message(self, tmp_path, capsys, kind, extra, message):
        args = ["variance", "--kind", kind, "--beta", "1", "--m", 50, "--out", tmp_path / "v.csv"]
        code = run_cli(args + extra)
        assert code == 2
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    @pytest.mark.parametrize(
        "kind, extra, message",
        [
            ("ow", ["--lambda", 2, "--alpha-t", -2, "--pi0", 5], "pi0 must be in (0, 1], got 5.0"),
            ("under-w", ["--c", 0.5, "--lambda", -3], "lambda_n must be >= 0, got -3.0"),
            ("full", ["--pi0", 1.5], "pi0 must be in (0, 1], got 1.5"),
            ("full", ["--xs", "no-such-dir/xs.csv", "--lambda", -1], "lambda_n must be >= 0, got -1.0"),
        ],
    )
    def test_unused_rate_is_checked(self, tmp_path, capsys, kind, extra, message):
        args = ["variance", "--kind", kind, "--beta", "1", "--m", 50, "--out", tmp_path / "v.csv"]
        code = run_cli(args + extra)
        assert code == 2
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    @pytest.mark.parametrize(
        "kind, extra, message",
        [
            ("ow", ["--lambda", "inf"], "lambda_n must be finite, got inf"),
            ("ubc", ["--c", "inf"], "c must be finite, got inf"),
            ("obc", ["--lambda", 2, "--c-o", "inf"], "c_o must be finite, got inf"),
            ("uw", ["--alpha-t", 800, "--pi0", 0.5], "limit constant c overflows at alpha_t=800"),
            ("obc", ["--alpha-t", 800, "--lambda", 2], "limit constant c_o overflows at alpha_t=800"),
        ],
    )
    def test_infinite_constant_is_an_input_error(self, tmp_path, capsys, kind, extra, message):
        args = ["variance", "--kind", kind, "--beta", "1", "--m", 50, "--out", tmp_path / "v.csv"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(args + extra)
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    @pytest.mark.parametrize(
        "kind, extra, message",
        [
            ("uw", ["--c", 0.5, "--c-o", -5], "c_o must be >= 0, got -5.0"),
            ("full", ["--c", "nan"], "c must be >= 0, got nan"),
            ("full", ["--xs", "no-such-dir/xs.csv", "--c-o", -1], "c_o must be >= 0, got -1.0"),
        ],
    )
    def test_unused_constant_is_checked(self, tmp_path, capsys, kind, extra, message):
        args = ["variance", "--kind", kind, "--beta", "1", "--m", 50, "--out", tmp_path / "v.csv"]
        code = run_cli(args + extra)
        assert code == 2
        assert capsys.readouterr().err.strip() == f"ValueError: {message}"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--kind", "ubc", "--c", "1e308"],
            ["--kind", "obc", "--lambda", 2, "--c-o", "1e300"],
            ["--kind", "uw", "--c", "1e308"],
        ],
        ids=["ubc", "obc", "uw"],
    )
    def test_overflowing_integrand_exits_3(self, tmp_path, capsys, extra):
        # ubc and obc used to exit 0 with an all-inf or all-zero covariance
        out = tmp_path / "v.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["variance", "--beta", "1", "--m", 50, "--out", out] + extra)
        assert code == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err.splitlines()
        assert err == ["OverflowError: nonfinite integrand in the plug-in average"]
        assert not out.exists()

    def test_unused_valid_rate_changes_nothing(self, tmp_path):
        out_plain = tmp_path / "plain.csv"
        out_extra = tmp_path / "extra.csv"
        args = ["variance", "--kind", "ow", "--beta", "1", "--lambda", 2, "--alpha-t", -2, "--m", 500]
        assert run_cli(args + ["--out", out_plain]) == 0
        assert run_cli(args + ["--pi0", 0.5, "--out", out_extra]) == 0
        assert out_plain.read_bytes() == out_extra.read_bytes()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--xs", "xs.csv", "--law-sd", -1], "sds must be positive and finite"),
            (["--xs", "xs.csv", "--law-mean", "nan"], "means must be finite"),
            (["--xs", "xs.csv", "--m", -3], "--m must be >= 1, got -3"),
            (["--m", -3], "--m must be >= 1, got -3"),
            (["--m", 0], "--m must be >= 1, got 0"),
            # the law's dimension is --beta's length, so an empty list is named
            (["--xs", "xs.csv", "--beta", ""], "--beta lists no values"),
        ],
        ids=["xs-law-sd", "xs-law-mean", "xs-m", "negative-m", "zero-m", "empty-beta"],
    )
    def test_law_and_m_checked_with_or_without_xs(self, tmp_path, capsys, extra, message):
        xs_path = tmp_path / "xs.csv"
        xs_path.write_text("x1\n1.0\n-0.5\n2.0\n")
        extra = [xs_path if a == "xs.csv" else a for a in extra]
        out = tmp_path / "v.csv"
        code = run_cli(["variance", "--kind", "full", "--beta", "1", "--out", out] + extra)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"ValueError: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            # a nan exponent passed the overflow guard and exited 3
            (["--beta", "nan"], "beta must be finite"),
            (["--beta", "inf"], "beta must be finite"),
            (["--beta", "inf,-inf", "--law-mean", "0,0"], "beta must be finite"),
            (["--beta", "1", "--law-sd", "1e308"], "sd 1e+308 with mean 0 lets a covariate draw overflow"),
        ],
        ids=["nan-beta", "inf-beta", "inf-minus-inf-beta", "huge-law-sd"],
    )
    def test_nonfinite_plug_in_input_exits_2(self, tmp_path, capsys, extra, message):
        out = tmp_path / "v.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["variance", "--kind", "full", "--m", 50, "--out", out] + extra)
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.splitlines() == [f"ValueError: {message}"]
        assert not out.exists()

    def test_overflowing_law_draws_nothing(self, tmp_path, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the law was sampled")

        monkeypatch.setattr(cli, "substream", no_draws)
        argv = ["variance", "--kind", "full", "--beta", 1, "--m", 50, "--law-sd", "1e308"]
        assert run_cli(argv + ["--out", tmp_path / "v.csv"]) == 2

    def test_singular_sample_exits_3(self, tmp_path, capsys):
        xs_path = tmp_path / "xs.csv"
        xs_path.write_text("x1\n1.0\n1.0\n1.0\n")
        code = run_cli(["variance", "--kind", "full", "--beta", "1", "--xs", xs_path, "--out", tmp_path / "v.csv"])
        assert code == 3
        assert "Singular" in capsys.readouterr().err


class TestCommandSurface:
    SHARED = ["-h", "--help", "--seed", "--out"]
    SOLVER = ["--tol", "--max-iter"]
    RATES = ["--pi0", "--lambda", "--alpha-t", "--c", "--c-o"]
    REPS = ["--reps", "--threads"]
    LAW = ["--law-mean", "--law-sd"]
    OPTIONS = {
        "fit": SHARED + SOLVER + RATES + ["--data", "--estimator"],
        "table1": SHARED + SOLVER + REPS + ["--n", "--rate", "--mu1", "--mu0", "--sigma"],
        "sweep": SHARED + SOLVER + REPS + LAW + ["--pi0-grid", "--lambda-grid", "--n", "--theta-t"],
        "variance": SHARED + RATES + LAW + ["--kind", "--beta", "--xs", "--m"],
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_exactly_the_commands_options(self, capsys, command):
        # formatting the help also formats every help string
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        found = set()
        for line in capsys.readouterr().out.splitlines():
            invocation = re.match(r"  (-\S.*?)(?:\s{2,}|$)", line)
            if invocation:
                found.update(part.split()[0] for part in invocation.group(1).split(", "))
        assert sorted(found) == sorted(self.OPTIONS[command])

    def test_variance_takes_no_solver_flags(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            run_cli([
                "variance", "--kind", "full", "--beta", 1, "--m", 50,
                "--tol", 1e-3, "--out", tmp_path / "v.csv",
            ])
        assert exit_.value.code == 2

"""Tests of rarelogit.cli: the commands, their errors and exit codes, and the
dataset and covariate CSV files.

Each section after the first opens with a comment that says what it pins.
"""

import csv
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from rarelogit import Dataset, EstimatorFamily, GaussianLaw, cli, covariance, substream
from rarelogit.cli import load_covariates, load_dataset, main, save_dataset
from rarelogit.model import BLOCK_ROWS

from _oracles import save_dataset_direct


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

    def test_save_holds_one_block_of_rows_at_a_time(self, tmp_path):
        # whole-column lists of these 2e5 x 3 rows would take 21 MB
        rng = substream(5)
        n = 200_000
        data = Dataset(x=rng.standard_normal((n, 3)), y=(rng.random(n) < 0.1).astype(int))
        tracemalloc.start()
        try:
            lists = [data.y[:BLOCK_ROWS].tolist()] + [c.tolist() for c in data.x[:BLOCK_ROWS].T]
            one_block = tracemalloc.get_traced_memory()[0]
            del lists
            tracemalloc.reset_peak()
            save_dataset(str(tmp_path / "d.csv"), data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block's Python numbers, plus the line being formatted and the file buffer
        assert peak < 1.25 * one_block

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

    @pytest.mark.parametrize("label", ["y", " y "])
    def test_covariate_loader_rejects_a_dataset_file(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"{label},x1\n1,0.5\n0,2\n")
        message = f"{path}: header starts with the label column y; --xs takes covariate columns only (x1..xd)"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_covariates(str(path))

    def test_a_dataset_file_as_xs_exits_2(self, tmp_path, capsys):
        # its labels would read as a first covariate, and --beta 1,1 fits two
        rng = substream(5)
        path = tmp_path / "data.csv"
        save_dataset(str(path), Dataset(x=rng.standard_normal((5000, 1)), y=rng.random(5000) < 0.1))
        out = tmp_path / "v.csv"
        assert run_cli(["variance", "--kind", "full", "--beta", "1,1", "--xs", path, "--out", out]) == 2
        message = f"{path}: header starts with the label column y; --xs takes covariate columns only (x1..xd)"
        assert capsys.readouterr().err.splitlines() == [f"ValueError: {message}"]
        assert not out.exists()

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

    @pytest.mark.parametrize("label", ["2", "0.5"])
    def test_a_bad_label_names_the_file_and_line(self, tmp_path, capsys, label):
        path = tmp_path / "d.csv"
        path.write_text(f"y,x1\n1,0.5\n\n{label},0.3\n0,2\n")
        message = f"{path}: line 4: labels must be 0 or 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(str(path))
        assert run_cli(["fit", "--data", path, "--estimator", "full", "--out", tmp_path / "o.csv"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"ValueError: {message}"]

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

    def test_run_as_a_module_exits_0(self, balanced_csv, tmp_path, monkeypatch, capsys):
        # as "python -m rarelogit.cli fit ..." runs it; runpy warns that the module is imported already
        out = tmp_path / "fit.csv"
        argv = ["fit", "--data", balanced_csv, "--estimator", "full", "--out", out]
        monkeypatch.setattr(sys, "argv", ["rarelogit.cli", *map(str, argv)])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "'rarelogit.cli' found in sys.modules", RuntimeWarning)
            with pytest.raises(SystemExit) as stop:
                runpy.run_module("rarelogit.cli", run_name="__main__")
        assert stop.value.code == 0
        assert capsys.readouterr().out.strip() == str(out)
        assert fields(out)["converged"] == "1"

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

    def test_collinear_covariates_exit_3_and_write_nothing(self, tmp_path, capsys):
        # only beta1 + 2 beta2 is identified, so no split of it is the estimate
        rng = substream(11)
        x1 = rng.standard_normal(500)
        y = (rng.random(500) < 0.2).astype(int)
        path = tmp_path / "collinear.csv"
        save_dataset(str(path), Dataset(x=np.column_stack([x1, 2.0 * x1]), y=y))
        out = tmp_path / "o.csv"
        code = run_cli(["fit", "--data", path, "--estimator", "full", "--out", out])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("SingularHessianError: ")
        assert not out.exists()

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

    # fit and variance used to fail with numpy's "expected non-negative
    # integer", and table1 and sweep to name base_seed
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--estimator", "full"],
            ["table1", "--n", 500, "--rate", 0.1, "--reps", 2, "--threads", 1],
            ["sweep", "--pi0-grid", 0.5, "--n", 300, "--theta-t=-2,1", "--reps", 2, "--threads", 1],
            ["variance", "--kind", "full", "--beta", 1, "--m", 1000],
        ],
        ids=["fit", "table1", "sweep", "variance"],
    )
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, balanced_csv, argv):
        out = tmp_path / "t.csv"
        data = ["--data", balanced_csv] if argv[0] == "fit" else []
        code = run_cli(argv + data + ["--seed", -1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.strip() == "ValueError: --seed must be >= 0, got -1"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--theta-t=-2,1", "--law-sd", "1e308"], "sd 1e+308 with mean 0 lets a covariate draw overflow"),
            # used to exit 0 with inf eMSEs and no failed replication
            (["--theta-t=-2,1e300", "--law-sd", "1e10"], "theta and the covariate law let alpha + beta'x overflow"),
            (["--theta-t=-2"], "--theta-t needs an intercept and at least one slope"),
        ],
        ids=["huge-sd", "huge-slope", "intercept-only"],
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

    @pytest.mark.parametrize("m", [BLOCK_ROWS, BLOCK_ROWS + 1, 5 * BLOCK_ROWS // 2])
    def test_law_draws_are_one_draw_of_m_rows(self, tmp_path, m):
        # the law's blocks hold bit for bit the rows of one law.sample(m, rng) call
        law = GaussianLaw(means=(1.5, -2.0, 0.25), sds=(0.3, 2.5, 1.0))
        beta = np.array([0.6, -0.4, 0.3])
        out = tmp_path / "v.csv"
        code = run_cli([
            "variance", "--kind", "obc", "--beta", "0.6,-0.4,0.3", "--lambda", 2, "--c-o", 0.9,
            "--law-mean", "1.5,-2,0.25", "--law-sd", "0.3,2.5,1", "--m", m, "--seed", 17, "--out", out,
        ])
        assert code == 0
        got = fields(out)
        want = covariance(EstimatorFamily.OVER_BIAS_CORRECTED, law.sample(m, substream(17)), beta, lam=2.0, c_o=0.9)
        assert int(got["m"]) == m
        assert [float(got[f"v_{i + 1}_{j + 1}"]) for i in range(4) for j in range(4)] == want.v.ravel().tolist()

    def test_law_draws_are_held_one_block_at_a_time(self, tmp_path):
        # the whole 1e6 x 3 draw alone would be 24 MB
        argv = ["variance", "--kind", "obc", "--beta", "1,-0.5,0.25", "--lambda", 10, "--alpha-t", -5]
        tracemalloc.start()
        try:
            code = run_cli(argv + ["--m", 1_000_000, "--out", tmp_path / "v.csv"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "cell, code, message",
        [
            ("800", 3, "OverflowError: exponent magnitude exceeds 700; the plug-in average would overflow"),
            ("nan", 2, f"ValueError: {{path}}: line {BLOCK_ROWS + 7}: cells must be finite"),
        ],
        ids=["overflow", "nan"],
    )
    def test_late_block_fault_in_xs_file(self, tmp_path, capsys, cell, code, message):
        # row BLOCK_ROWS + 5 is in the second block; the header is line 1
        xs = substream(9).standard_normal((5 * BLOCK_ROWS // 2, 2))
        lines = [f"{a!r},{b!r}" for a, b in xs.tolist()]
        lines[BLOCK_ROWS + 5] = f"{cell},0.5"
        xs_path = tmp_path / "xs.csv"
        xs_path.write_text("x1,x2\n" + "\n".join(lines) + "\n")
        out = tmp_path / "v.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_cli(["variance", "--kind", "ubc", "--beta", "1,0.5", "--c", 0.4, "--xs", xs_path, "--out", out])
        assert got == code
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err.splitlines() == [message.format(path=xs_path)]
        assert not out.exists()

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


def test_commands_run_one_blas_thread_set_once_per_process(tmp_path):
    # A process started with two OpenBLAS threads runs two commands; each
    # loaded library reports one thread after them, and the cached setter
    # was called by both but ran once.
    script = (
        "import os\n"
        "from rarelogit import cli, simulation\n"
        "assert cli._one_blas_thread is simulation._one_blas_thread\n"
        "before = simulation._blas_threads()\n"
        "argv = ['variance', '--kind', 'full', '--beta', '1', '--m', '100', '--out', os.devnull]\n"
        "codes = [cli.main(argv), cli.main(argv)]\n"
        "info = simulation._one_blas_thread.cache_info()\n"
        "print(before, simulation._blas_threads(), info.misses, info.hits, *codes)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=120, cwd=tmp_path,
    )
    before, after, runs, hits, *codes = run.stdout.split()[-6:]
    assert before == str(min(2, os.cpu_count() or 1))
    assert (after, runs, hits, codes) == ("1", "1", "1", ["0", "0"])


# ----------------------------------------------------------------------------
# Property tests of the dataset and covariate CSV files.
# ----------------------------------------------------------------------------

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# every finite double: subnormals, -0.0 and magnitudes up to 1.8e308
finite = st.floats(allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308])


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 50))
    d = draw(st.integers(1, 4))
    return draw(arrays(np.float64, (n, d), elements=finite | special))


@st.composite
def datasets(draw):
    x = draw(matrices())
    y = draw(arrays(np.int64, x.shape[0], elements=st.integers(0, 1)))
    return Dataset(x=x, y=y)


class TestRoundTrip:
    @PROPERTY
    @given(data=datasets())
    def test_dataset_file_matches_direct_writer_and_reads_back(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            direct = os.path.join(tmp, "direct.csv")
            save_dataset(path, data)
            save_dataset_direct(direct, data)
            with open(path, "rb") as fh, open(direct, "rb") as gh:
                assert fh.read() == gh.read()
            back = load_dataset(path)
        assert back.x.tobytes() == data.x.tobytes()
        assert back.y.tobytes() == data.y.tobytes()

    @PROPERTY
    @given(x=matrices())
    def test_covariate_file_reads_back_bitwise(self, x):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "xs.csv")
            with open(path, "w") as fh:
                fh.write(",".join(f"x{j + 1}" for j in range(x.shape[1])) + "\n")
                fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in x.tolist())
            back = load_covariates(path)
        assert back.tobytes() == x.tobytes()

    @pytest.mark.parametrize("extra", [-1, 0, 1, BLOCK_ROWS + 5])
    def test_dataset_file_across_row_blocks(self, tmp_path, extra):
        # save_dataset converts BLOCK_ROWS rows at a time: one row short of a
        # block, one block, one row past it, and into a third block
        rng = np.random.default_rng(extra + 2)
        n = BLOCK_ROWS + extra
        data = Dataset(x=rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2)),
                       y=rng.integers(0, 2, n))
        save_dataset(str(tmp_path / "d.csv"), data)
        save_dataset_direct(str(tmp_path / "direct.csv"), data)
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

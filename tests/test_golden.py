"""Seeded CLI outputs against committed golden files.

Each case runs one `fit`, `variance`, `table1` or `sweep` command through
`cli.main` on inputs generated here from seeded substreams, and compares the
result CSV with `tests/golden/<case>.csv`: the provenance line and every text
cell exactly, numeric cells to 1e-12 relative (1e-12 absolute near zero), so
that a different BLAS build still passes.

Regenerate the golden files, after a change that is meant to move them, with

    PYTHONPATH=src python tests/test_golden.py

Given a directory, the script writes the 17 result files there instead, so
two commits' outputs compare byte for byte: run it in a checkout of each,
each with its own directory, then `diff -r` the two directories.  Compare a
change with its parent commit's output, not with tests/golden/: a file
written with another BLAS build can differ from the committed one in its
last digits (sweep_over.csv does on some machines), which this test's
1e-12 tolerance accepts.

    PYTHONPATH=src python tests/test_golden.py DIR
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from rarelogit import Dataset, substream
from rarelogit.cli import main, save_dataset

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12
ABS_TOL = 1e-12

FIT = ["fit", "--data", "{data}", "--alpha-t", "-2", "--seed", "5"]
VARIANCE = ["variance", "--beta", "1,-0.5", "--m", "4000", "--seed", "3"]
SWEEP = ["sweep", "--n", "1500", "--theta-t=-2,1", "--reps", "3", "--seed", "11", "--threads", "1"]

CASES = {
    "fit_full": FIT + ["--estimator", "full"],
    "fit_under_w": FIT + ["--estimator", "under-w", "--pi0", "0.3"],
    "fit_under_bc": FIT + ["--estimator", "under-bc", "--pi0", "0.3"],
    "fit_over_w": FIT + ["--estimator", "over-w", "--lambda", "2"],
    "fit_over_bc": FIT + ["--estimator", "over-bc", "--lambda", "2"],
    # at the identity rate a design keeps every row once: the full fit's estimate
    "fit_under_w_identity": FIT + ["--estimator", "under-w", "--pi0", "1"],
    "fit_over_bc_identity": FIT + ["--estimator", "over-bc", "--lambda", "0"],
    # at d = 3 the plug-in's products round differently on the other memory order
    "fit_over_bc_d3": ["fit", "--data", "{data3}", "--alpha-t", "-3", "--seed", "5",
                       "--estimator", "over-bc", "--lambda", "2"],
    "variance_full": VARIANCE + ["--kind", "full"],
    "variance_uw": VARIANCE + ["--kind", "uw", "--alpha-t", "-2", "--pi0", "0.3"],
    "variance_ubc": VARIANCE + ["--kind", "ubc", "--c", "0.4"],
    "variance_ow": VARIANCE + ["--kind", "ow", "--lambda", "2"],
    "variance_obc": VARIANCE + ["--kind", "obc", "--lambda", "2", "--alpha-t", "-2", "--xs", "{xs}"],
    # 40,000 law draws are 2.4 of the plug-in's row blocks (argparse keeps the last --m)
    "variance_uw_blocks": VARIANCE + ["--m", "40000", "--kind", "uw", "--alpha-t", "-2", "--pi0", "0.3"],
    "table1": ["table1", "--n", "2000", "--rate", "0.05", "--reps", "4", "--seed", "2", "--threads", "1"],
    "sweep_under": SWEEP + ["--pi0-grid", "0.3,1"],
    "sweep_over": SWEEP + ["--lambda-grid", "0,2"],
}


def write_inputs(directory: Path) -> dict:
    """A 600-row rare-ish dataset and a 3000-row covariate sample, both d=2, and a 2000-row d=3 dataset."""
    rng = substream(31)
    x = rng.standard_normal((600, 2))
    eta = -2.0 + x @ np.array([1.0, -0.5])
    y = (rng.random(600) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    data_path = directory / "data.csv"
    save_dataset(str(data_path), Dataset(x=x, y=y))

    xs = substream(32).standard_normal((3000, 2))
    xs_path = directory / "xs.csv"
    with open(xs_path, "w") as fh:
        fh.write("x1,x2\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in xs.tolist())

    rng = substream(33)
    x3 = rng.standard_normal((2000, 3))
    eta3 = -3.0 + x3 @ np.array([1.0, -0.5, 0.25])
    y3 = (rng.random(2000) < 1.0 / (1.0 + np.exp(-eta3))).astype(int)
    data3_path = directory / "data3.csv"
    save_dataset(str(data3_path), Dataset(x=x3, y=y3))
    return {"data": str(data_path), "xs": str(xs_path), "data3": str(data3_path)}


def run_case(name: str, inputs: dict, out: Path) -> None:
    argv = [arg.format(**inputs) for arg in CASES[name]] + ["--out", str(out)]
    assert main(argv) == 0, f"{name}: {' '.join(argv)}"


def cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, inputs, tmp_path):
    out = tmp_path / f"{name}.csv"
    run_case(name, inputs, out)
    got = out.read_text().splitlines()
    want = (GOLDEN / f"{name}.csv").read_text().splitlines()
    assert got[0] == want[0]
    got_rows, want_rows = list(csv.reader(got[1:])), list(csv.reader(want[1:]))
    assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        for g, w in zip(g_row, w_row):
            assert cells_match(g, w), f"{name} row {i}: {g_row} != {w_row}"


@pytest.mark.parametrize("name", ["fit_under_w_identity", "fit_over_bc_identity"])
def test_identity_rate_fits_the_full_estimate(name):
    """pi0 = 1 and lambda_n = 0 keep every row once with weight 1 and shift 0."""

    def estimate(case):
        rows = csv.reader((GOLDEN / f"{case}.csv").read_text().splitlines()[1:])
        return {f: v for f, v in rows if f == "alpha" or f.startswith("beta")}

    assert estimate(name) == estimate("fit_full")


if __name__ == "__main__":
    import sys
    import tempfile

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for case in sorted(CASES):
            run_case(case, paths, target / f"{case}.csv")

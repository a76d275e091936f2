"""Command-line surface: dataset I/O, fits, simulation tables, variance reports.

Subcommands: fit, table1, sweep, variance.  Each subcommand computes its
result table, a header and rows, and returns it; `main` writes the table
and prints its path, so a command that fails writes no file.  Flags that
several subcommands share are declared once, on argparse parent parsers.

Datasets are CSV with a header row, a first column y of 0/1 labels and
covariate columns x1..xd.  They are written through one `%`-format row
template with 17 significant digits and read by one `np.loadtxt` call after
the header, so a saved dataset loads back bit for bit.  Result files are CSV
with a leading provenance comment line `# seed=<s> version=<v>`; numeric
fields carry 17 significant digits so values round-trip exactly.  Exit
codes: 0 success, 2 input or I/O error, 3 numeric or solver failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import re
import sys

import numpy as np

from . import __version__
from .asymptotics import (
    _check_constant,
    covariance,
    limit_constants,
    oversampling_variance_factor,
    required_constants,
)
from .estimators import (
    EstimatorFamily,
    EstimatorKind,
    fit_estimator,
    realize_design,
)
from .model import Coefficients, Dataset, RareLogitError, SolverSettings
from .sampling import DesignKind, effective_sample_size, substream
from .simulation import (
    ConditionalGaussianDesign,
    ExperimentConfig,
    GaussianLaw,
    MarginalLogisticDesign,
    run_experiment,
)

__all__ = ["load_dataset", "load_covariates", "main", "save_dataset"]

_KIND_ALIASES = {family.value: family for family in EstimatorFamily} | {
    "uw": EstimatorFamily.UNDER_WEIGHTED,
    "ubc": EstimatorFamily.UNDER_BIAS_CORRECTED,
    "ow": EstimatorFamily.OVER_WEIGHTED,
    "obc": EstimatorFamily.OVER_BIAS_CORRECTED,
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_table(path: str, seed: int, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed} version={__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def save_dataset(path: str, data: Dataset) -> None:
    """Write a dataset as CSV: header y,x1..xd, then one line per row.

    Each line is the template "%d,%.17g,...,%.17g" applied to the row, the
    same conversion as f"{v:.17g}": 17 significant digits, trailing zeros
    dropped, enough for every double (subnormals, -0 and values near 1e308
    included) to read back to the same bits.
    """
    template = "%d" + ",%.17g" * data.d + "\n"
    columns = [data.y.tolist()] + [column.tolist() for column in data.x.T]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["y"] + [f"x{j + 1}" for j in range(data.d)]) + "\n")
        fh.writelines(template % row for row in zip(*columns))


def _parse_rows(lines) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _data_lines(path: str):
    """(line number, line) for each line of a CSV that _read_table parses as a row.

    Lines are numbered from 1 at the header.  Blank lines before the first
    row are skipped, as _read_table skips them, and empty lines after it,
    as np.loadtxt skips them.
    """
    with open(path) as fh:
        next(fh, None)
        started = False
        for k, line in enumerate(fh, start=2):
            started = started or bool(line.strip())
            if started and line != "\n":
                yield k, line


def _parse_error(path: str, err: ValueError) -> ValueError:
    """err restated with the file and the line of the first row that does not parse.

    Runs only after np.loadtxt failed: each row is parsed on its own, so
    the line found is the file's own, not numpy's count of data rows.
    """
    columns = None
    for k, line in _data_lines(path):
        try:
            cells = _parse_rows([line]).shape[1]
        except ValueError as line_err:
            reason = re.sub(r"\s+at row \d+.*$", "", str(line_err), flags=re.S)
            return ValueError(f"{path}: line {k}: {reason}")
        if columns is None:
            columns = cells
        elif cells != columns:
            return ValueError(
                f"{path}: line {k}: expected {columns} cells as on the first data line, found {cells}"
            )
    return ValueError(f"{path}: {err}")


def _read_table(path: str, first_column: str | None) -> np.ndarray:
    """The data rows of a CSV with a header row, as an (n, columns) float array.

    The header is read by csv.reader and must start with first_column when
    that is given.  The rows go to one np.loadtxt call, which skips blank
    lines and accepts quoted cells.  A cell that is not a float literal, a
    ragged row or a cell that is not finite raises ValueError naming the
    file and the line.
    """
    with open(path) as fh:
        header = next(csv.reader(fh), None)
        if first_column is not None and (not header or header[0].strip() != first_column):
            raise ValueError(f"{path}: expected header starting with {first_column!r}")
        if not header:
            raise ValueError(f"{path}: empty file")
        first_row = next((line for line in fh if line.strip()), None)
        if first_row is None:
            raise ValueError(f"{path}: no data rows")
        # the file's own line iterator parses faster than a string of the rows
        try:
            table = _parse_rows(itertools.chain([first_row], fh))
        except ValueError as err:
            raise _parse_error(path, err) from None
    if not np.isfinite(table).all():
        row = int(np.argmin(np.isfinite(table).all(axis=1)))
        k, _ = next(itertools.islice(_data_lines(path), row, None))
        raise ValueError(f"{path}: line {k}: cells must be finite")
    return table


def load_dataset(path: str) -> Dataset:
    """Read a dataset CSV (header y,x1..xd) back into a Dataset."""
    table = _read_table(path, "y")
    return Dataset(x=table[:, 1:], y=table[:, 0])


def load_covariates(path: str) -> np.ndarray:
    """Read a covariate sample CSV (header x1..xd, no label column)."""
    return _read_table(path, None)


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


# each scheme's rate flag and its dest, which is also limit_constants' keyword
_RATE_FLAGS = {DesignKind.UNDERSAMPLE: ("--pi0", "pi0"), DesignKind.OVERSAMPLE: ("--lambda", "lambda_n")}


def _check_rates_and_constants(args: argparse.Namespace) -> None:
    """Reject an out-of-range --pi0, --lambda, --c or --c-o, whether the estimator uses it or not."""
    for scheme, (_, dest) in _RATE_FLAGS.items():
        if getattr(args, dest) is not None:
            scheme.check_rate(getattr(args, dest))
    for name in ("c", "c_o"):
        if getattr(args, name) is not None:
            _check_constant(getattr(args, name), name)


def _estimator_kind(args: argparse.Namespace) -> EstimatorKind:
    family = _KIND_ALIASES[args.estimator]
    if family.design_kind is None:
        return EstimatorKind(family)
    flag, dest = _RATE_FLAGS[family.design_kind]
    if getattr(args, dest) is None:
        raise ValueError(f"--estimator {args.estimator} requires {flag}")
    return EstimatorKind(family, rate=getattr(args, dest))


# what to say when a limit constant a covariance needs was neither given nor derived
_MISSING_CONSTANT = {
    "c": "{} variance needs c (or --alpha-t with --pi0)",
    "c_o": "{} variance needs c_o (or --alpha-t with --lambda)",
    "lam": "over-sampling variances need --lambda",
}


def _covariance_constants(args: argparse.Namespace, family: EstimatorFamily) -> dict:
    """The constants covariance() takes for the family, from the flags alone.

    c and c_o are --c and --c-o, else derived from --alpha-t at the rate the
    family samples at; the other rate flag is not used.  A constant the
    family needs but lacks raises ValueError, before any data are read.
    """
    rate: dict[str, float | None] = {}
    if family.design_kind is not None:
        _, dest = _RATE_FLAGS[family.design_kind]
        rate[dest] = getattr(args, dest)
    c, c_o = args.c, args.c_o
    if args.alpha_t is not None:
        derived_c, derived_co = limit_constants(args.alpha_t, **rate)
        c = derived_c if c is None else c
        c_o = derived_co if c_o is None else c_o
    constants = {"c": c, "c_o": c_o, "lam": rate.get("lambda_n")}
    for name in required_constants(family):
        if constants[name] is None:
            raise ValueError(_MISSING_CONSTANT[name].format(family.value))
    return constants


def _covariance_rows(
    family: EstimatorFamily, xs: np.ndarray, beta: np.ndarray, constants: dict
) -> list[list]:
    """The family's asymptotic covariance as table rows: its constants, then v_i_j."""
    report = covariance(family, xs, beta, **constants)

    rows: list[list] = []
    if report.c is not None:
        rows.append(["c", report.c])
    if report.c_o is not None:
        rows.append(["c_o", report.c_o])
    if report.lam is not None:
        rows.append(["lambda", report.lam])
        rows.append(["factor", oversampling_variance_factor(report.lam)])
    k = report.v.shape[0]
    for i in range(k):
        for j in range(k):
            rows.append([f"v_{i + 1}_{j + 1}", report.v[i, j]])
    return rows


def _law(args: argparse.Namespace, d: int) -> GaussianLaw:
    """The covariate law of --law-mean and --law-sd (defaults: zeros, ones) in d dimensions."""
    means = _floats(args.law_mean) if args.law_mean else [0.0] * d
    sds = _floats(args.law_sd) if args.law_sd else [1.0] * d
    return GaussianLaw(means=tuple(means), sds=tuple(sds))


def _cmd_fit(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _check_rates_and_constants(args)
    kind = _estimator_kind(args)
    constants = None
    if args.alpha_t is not None or args.c is not None or args.c_o is not None:
        constants = _covariance_constants(args, kind.tag)
    data = load_dataset(args.data)
    settings = SolverSettings(tol=args.tol, max_iter=args.max_iter)
    design = realize_design(kind, data, substream(args.seed))
    fit = fit_estimator(kind, data, design, settings)

    rows: list[list] = [
        ["estimator", kind.tag.value],
        ["rate", "" if kind.rate is None else kind.rate],
        ["n", data.n],
        ["n1", data.n1],
        ["n0", data.n0],
        ["effective_n", data.n if design is None else effective_sample_size(design)],
        ["converged", fit.converged],
        ["iterations", fit.iterations],
        ["grad_max_norm", fit.grad_max_norm],
        ["alpha", fit.theta.alpha],
    ]
    for j, b in enumerate(fit.theta.beta):
        rows.append([f"beta{j + 1}", b])

    if constants is not None:
        rows.extend(_covariance_rows(kind.tag, data.x, fit.theta.beta, constants))
    return ["field", "value"], rows


def _cmd_table1(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    sizes = _ints(args.n)
    rates = _floats(args.rate)
    if len(sizes) != len(rates):
        raise ValueError("--n and --rate must pair up one-to-one")
    if not sizes:
        raise ValueError("--n and --rate list no values")
    # every (n, rate) design is checked before the first replication runs
    configs = [
        ExperimentConfig(
            design=ConditionalGaussianDesign(
                mu1=args.mu1, mu0=args.mu0, sigma=args.sigma, target_rate=rate
            ),
            n=n,
            reps=args.reps,
            estimators=(EstimatorKind(EstimatorFamily.FULL),),
            base_seed=args.seed,
            solver=SolverSettings(tol=args.tol, max_iter=args.max_iter),
        )
        for n, rate in zip(sizes, rates)
    ]
    rows = []
    for config in configs:
        n, rate = config.n, config.design.target_rate
        report = run_experiment(config, threads=args.threads)
        entry = report.entries[0]
        expected_n1 = n * rate
        rows.append(
            [
                n,
                rate,
                expected_n1,
                expected_n1 * entry.emse_alpha,
                expected_n1 * sum(entry.emse_beta),
                n * entry.emse_alpha,
                n * sum(entry.emse_beta),
                entry.failed,
            ]
        )
        print(f"table1: n={n} rate={rate:g} done", file=sys.stderr)
    header = [
        "n",
        "rate",
        "expected_n1",
        "en1_emse_alpha",
        "en1_emse_beta",
        "n_emse_alpha",
        "n_emse_beta",
        "failed",
    ]
    return header, rows


def _sweep_estimators(scheme: DesignKind, grid: list[float]) -> tuple[EstimatorKind, ...]:
    """The full-data baseline, then every family on the scheme at each rate."""
    families = [family for family in EstimatorFamily if family.design_kind is scheme]
    kinds = [EstimatorKind(family, rate=rate) for rate in grid for family in families]
    return (EstimatorKind(EstimatorFamily.FULL), *kinds)


def _cmd_sweep(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    if (args.pi0_grid is None) == (args.lambda_grid is None):
        raise ValueError("give exactly one of --pi0-grid and --lambda-grid")
    if args.pi0_grid is not None:
        scheme, grid = DesignKind.UNDERSAMPLE, _floats(args.pi0_grid)
    else:
        scheme, grid = DesignKind.OVERSAMPLE, _floats(args.lambda_grid)
    if not grid:
        raise ValueError("--pi0-grid or --lambda-grid lists no rates")
    theta_vals = _floats(args.theta_t)
    if len(theta_vals) < 2:
        raise ValueError("--theta-t needs an intercept and at least one slope")
    theta_t = Coefficients(alpha=theta_vals[0], beta=np.array(theta_vals[1:]))
    law = _law(args, theta_t.beta.shape[0])

    config = ExperimentConfig(
        design=MarginalLogisticDesign(theta=theta_t, law=law),
        n=args.n,
        reps=args.reps,
        estimators=_sweep_estimators(scheme, grid),
        base_seed=args.seed,
        solver=SolverSettings(tol=args.tol, max_iter=args.max_iter),
    )
    report = run_experiment(config, threads=args.threads)
    rows = []
    for entry in report.entries:
        rows.append(
            [
                entry.kind.tag.value,
                "" if entry.kind.rate is None else entry.kind.rate,
                1e3 * entry.emse_total,
                1e3 * entry.emse_alpha,
                1e3 * sum(entry.emse_beta),
                entry.failed,
            ]
        )
    header = ["estimator", "rate", "emse_x1000", "emse_alpha_x1000", "emse_beta_x1000", "failed"]
    return header, rows


def _cmd_variance(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _check_rates_and_constants(args)
    family = _KIND_ALIASES[args.kind]
    beta = np.array(_floats(args.beta))
    if beta.size == 0:
        raise ValueError("--beta lists no values")
    constants = _covariance_constants(args, family)
    # the law and --m are checked even when --xs makes them unused
    law = _law(args, beta.shape[0])
    if args.m < 1:
        raise ValueError(f"--m must be >= 1, got {args.m}")
    if args.xs is not None:
        xs = load_covariates(args.xs)
    else:
        xs = law.sample(args.m, substream(args.seed))

    rows: list[list] = [["kind", family.value], ["m", xs.shape[0]]]
    rows.extend(_covariance_rows(family, xs, beta, constants))
    return ["field", "value"], rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rarelogit",
        description="Rare-events logistic regression: subsampling estimators, "
        "bias corrections, asymptotic variances, and simulation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags several subcommands share, each declared once on a parent parser
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    output.add_argument("--out", required=True, help="result CSV path")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=float, default=SolverSettings.tol, help="gradient tolerance (default %(default)s)")
    solver.add_argument("--max-iter", type=int, default=SolverSettings.max_iter, help="Newton step cap (default %(default)s)")
    rates = argparse.ArgumentParser(add_help=False)
    rates.add_argument("--pi0", type=float, help="under-sampling rate: control retention probability")
    rates.add_argument("--lambda", dest="lambda_n", type=float, help="case over-sampling rate")
    rates.add_argument("--alpha-t", type=float, help="true intercept, for the limit constants")
    rates.add_argument("--c", type=float, help="limit constant exp(alpha_t)/pi0, given directly")
    rates.add_argument("--c-o", type=float, help="limit constant lambda*exp(alpha_t), given directly")
    reps = argparse.ArgumentParser(add_help=False)
    reps.add_argument("--reps", type=int, default=1000, help="replication count S (default 1000)")
    reps.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1, help="parallel replications"
    )
    law = argparse.ArgumentParser(add_help=False)
    law.add_argument("--law-mean", help="covariate means (default zeros)")
    law.add_argument("--law-sd", help="covariate sds (default ones)")

    def command(name: str, func, help: str, *parents) -> argparse.ArgumentParser:
        """A subcommand: func computes its table; it takes the flags of parents and output."""
        cmd = sub.add_parser(name, help=help, parents=[*parents, output])
        cmd.set_defaults(func=func)
        return cmd

    fit = command("fit", _cmd_fit, "fit one estimator on a dataset CSV", rates, solver)
    fit.add_argument("--data", required=True, help="dataset CSV (header y,x1..xd)")
    fit.add_argument(
        "--estimator",
        required=True,
        choices=sorted(_KIND_ALIASES),
        help="estimator: full, under-w, under-bc, over-w, over-bc",
    )

    table1 = command("table1", _cmd_table1, "scaled full-data eMSE table over (n, rate) pairs", reps, solver)
    table1.add_argument("--n", required=True, help="comma list of sample sizes")
    table1.add_argument("--rate", required=True, help="comma list of event rates, paired with --n")
    table1.add_argument("--mu1", type=float, default=1.0, help="case covariate mean (default 1)")
    table1.add_argument("--mu0", type=float, default=0.0, help="control covariate mean (default 0)")
    table1.add_argument("--sigma", type=float, default=1.0, help="covariate sd (default 1)")

    sweep = command("sweep", _cmd_sweep, "eMSE of the sampling estimators over a rate grid", law, reps, solver)
    sweep.add_argument("--pi0-grid", help="comma list of under-sampling rates")
    sweep.add_argument("--lambda-grid", help="comma list of over-sampling rates")
    sweep.add_argument("--n", type=int, required=True, help="sample size per replication")
    sweep.add_argument(
        "--theta-t", required=True, help="true coefficients, comma list alpha,beta1,.."
    )

    variance = command("variance", _cmd_variance, "asymptotic covariance matrix and constants", rates, law)
    variance.add_argument(
        "--kind", required=True, choices=sorted(_KIND_ALIASES), help="estimator family"
    )
    variance.add_argument("--beta", required=True, help="slope vector, comma list")
    variance.add_argument("--xs", help="covariate sample CSV (header x1..xd)")
    variance.add_argument("--m", type=int, default=1_000_000, help="law draws when no --xs (default 1e6)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        header, rows = args.func(args)
        _write_table(args.out, args.seed, header, rows)
        print(args.out)
    except (RareLogitError, OverflowError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError, csv.Error) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

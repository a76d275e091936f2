#!/usr/bin/env python3
"""Layered benchmark for rarelogit: two Monte Carlo sweeps and a CLI file round.

Workloads, each run in this one process with no worker pool:

  sweep_under  run_experiment on the acceptance under-sampling sweep: marginal
               design theta=(-6, 1), n=1e5, full MLE plus under-w and under-bc
               at six pi0 values (13 estimators), 2 replications per call.
  sweep_over   the same on the acceptance over-sampling sweep: full MLE plus
               over-w and over-bc at four lambda values (9 estimators).
  cli_files    rounds of rarelogit.cli.main on a generated 2e5 x 3 CSV: save the
               file, fit under-bc and over-bc on it, `variance` for all five
               kinds at m=1e6, and `table1` with 600 small fits.

Usage:

  python3 bench/run.py --workload sweep_under --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --self-check          # tiny sizes; checks the checks
  python3 bench/run.py --record-reference    # rewrite bench/reference.json

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics, taken from spans recorded around the
program's functions (see spans.py).  The last line of standard output is
the JSON result; the lines before it record the environment and each
metric with its sample count.  The package is imported from this
checkout's src/; any other copy is refused.

Times are scaled to a reference machine speed (see SpeedGauge): on a shared
machine the raw times of identical work drift by half for tens of seconds.
`reps_per_s` counts replications on the sweeps and CLI rounds on cli_files.
"""

import os
import sys
import time

# One BLAS thread: the workloads run in one process on a small shared machine,
# and two BLAS threads made the sweeps slower and noisier there.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import spans  # sibling module: the script's directory is on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 0
SETUP_PROBES = 3
REL_TOL = 1e-6

UNDER_RATES = (0.005, 0.01, 0.2, 0.5, 0.8, 1.0)
OVER_RATES = (0.0, 3.48, 11.18, 53.6)
CLI_ALPHA = -5.0
CLI_BETA = (1.0, -0.5, 0.25)
# fit/variance output fields left out of the value check: text, and solver
# details (step count, final gradient) that a faster solver may change
UNCOMPARED_FIELDS = {"estimator", "kind", "iterations", "grad_max_norm", "converged", "rate"}


@dataclass(frozen=True)
class Scale:
    n: int  # rows per sweep replication
    chunk_reps: int  # replications per run_experiment call
    rows: int  # rows of the cli_files dataset
    m: int  # covariate draws per `variance` call
    table1_n: str
    table1_rate: str
    table1_reps: int


FULL = Scale(100_000, 2, 200_000, 1_000_000, "1000,10000", "0.02,0.004", 300)
TINY = Scale(4_000, 1, 2_000, 20_000, "1000,2000", "0.02,0.02", 3)


def import_program():
    """Import rarelogit from this checkout's src/ and nowhere else."""
    if not (SRC / "rarelogit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rarelogit sources under {SRC}")
    if "rarelogit" in sys.modules:
        raise SystemExit("bench: rarelogit was imported before its path was set")
    sys.path.insert(0, str(SRC))
    import rarelogit
    import rarelogit.cli

    where = Path(rarelogit.__file__).resolve().parent
    if where != SRC / "rarelogit":
        raise SystemExit(f"bench: imported rarelogit from {where}, expected {SRC / 'rarelogit'}")
    return rarelogit


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i of a run: distinct per (run seed, operation)."""
    return seed * 1_000_003 + i


class Call(NamedTuple):
    """One timed block of an operation."""

    label: str
    seconds: float  # at the reference speed (see SpeedGauge)
    raw: float  # as measured
    spans: range  # indices of the spans recorded inside the block


@dataclass
class Outcome:
    """What one operation did: work units, timed calls, and check results."""

    units: int
    attempted: int
    calls: list = field(default_factory=list)  # Call records, from the Clock
    failed: int = 0  # operations that raised or reported a failure
    incorrect: int = 0  # operations whose output failed a check
    values: dict = field(default_factory=dict)  # group -> floats, for the reference
    notes: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(call.seconds for call in self.calls)

    @property
    def raw_seconds(self) -> float:
        return sum(call.raw for call in self.calls)


class SpeedGauge:
    """Follows the machine's speed with a fixed kernel timed between blocks.

    On a shared machine the same operation can run 1.5 times slower for tens
    of seconds at a time.  The kernel is numpy elementwise work of the kind
    the solver does; it tracked the sweeps' and the CLI rounds' slow spells
    better than a kernel of Python string work.  A block's seconds times
    KERNEL_S over the mean kernel time just before and after it give its
    time at a fixed reference speed, the speed at which the kernel takes
    KERNEL_S.
    """

    KERNEL_S = 0.05

    def __init__(self) -> None:
        self.a = np.random.default_rng(12345).standard_normal(100_000)
        self.last = self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        for _ in range(16):
            np.logaddexp(0.0, self.a).sum()
            (self.a * self.a).sum()
        return time.perf_counter() - start

    def adjust(self, raw: float) -> float:
        """Seconds measured since the last sample, at the reference speed."""
        before, self.last = self.last, self.sample()
        return raw * self.KERNEL_S / (0.5 * (before + self.last))


class Clock:
    """Times labelled blocks; with a tracer, the program is traced inside them."""

    def __init__(self, gauge: SpeedGauge | None = None, tracer=None) -> None:
        self.gauge, self.tracer = gauge, tracer
        self.calls: list[Call] = []

    @contextlib.contextmanager
    def timed(self, label: str):
        tracer = self.tracer
        first = len(tracer.spans) if tracer else 0
        undo = spans.install(tracer) if tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - start
            if undo is not None:
                undo()
            seconds = self.gauge.adjust(raw) if self.gauge else raw
            last = len(tracer.spans) if tracer else 0
            self.calls.append(Call(label, seconds, raw, range(first, last)))

    def unconverged(self) -> int:
        """Unconverged fits seen so far; only a traced run can see them."""
        return self.tracer.counts["model.fit_mle.nonconverged"] if self.tracer else 0


def mismatched_groups(values: dict, reference: dict) -> list[str]:
    """Groups whose values differ from the reference beyond REL_TOL.

    Each value is compared relative to itself, with an absolute floor at
    REL_TOL times the largest magnitude in its group, so near-zero entries
    such as off-diagonal covariances do not demand more digits than the
    group's scale carries.
    """
    bad = sorted(set(values) ^ set(reference))
    for group in sorted(set(values) & set(reference)):
        got, want = values[group], reference[group]
        floor = REL_TOL * max((abs(v) for v in want), default=0.0)
        if len(got) != len(want) or not all(
            math.isclose(g, w, rel_tol=REL_TOL, abs_tol=floor) for g, w in zip(got, want)
        ):
            bad.append(group)
    return bad


class Sweep:
    """Chunks of a seeded Monte Carlo sweep through run_experiment."""

    def __init__(self, rl, scheme: str, seed: int, scale: Scale, solver=None) -> None:
        F, K = rl.EstimatorFamily, rl.EstimatorKind
        if scheme == "under":
            families, rates, identity_rate = (F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED), UNDER_RATES, 1.0
        else:
            families, rates, identity_rate = (F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED), OVER_RATES, 0.0
        self.rl, self.seed, self.scale = rl, seed, scale
        self.full = K(F.FULL)
        self.kinds = (self.full,) + tuple(K(f, r) for r in rates for f in families)
        # pi0 = 1 and lambda = 0 reproduce the full-data fit exactly
        self.identities = tuple(K(f, identity_rate) for f in families)
        self.design = rl.MarginalLogisticDesign(
            theta=rl.Coefficients(-6.0, [1.0]), law=rl.GaussianLaw.standard(1)
        )
        self.solver = solver if solver is not None else rl.SolverSettings()
        self.reference: list | None = None

    def close(self) -> None:
        pass

    def op(self, i: int, clock: Clock) -> Outcome:
        rl = self.rl
        reps = self.scale.chunk_reps
        config = rl.ExperimentConfig(
            design=self.design,
            n=self.scale.n,
            reps=reps,
            estimators=self.kinds,
            base_seed=op_seed(self.seed, i),
            solver=self.solver,
        )
        out = Outcome(units=reps, attempted=reps * len(self.kinds))
        before = clock.unconverged()
        try:
            with clock.timed("chunk"):
                report = rl.simulation.run_experiment(config)
        except rl.RareLogitError as err:
            out.failed = out.attempted
            out.notes.append(f"chunk {i}: {type(err).__name__}: {err}")
            return out
        # run_experiment counts an unconverged fit as a success
        out.failed = sum(entry.failed for entry in report.entries) + clock.unconverged() - before
        if out.failed:
            out.notes.append(f"chunk {i}: {out.failed} fits failed")
        full = _entry_values(report.entry(self.full))
        for kind in self.identities:
            if _entry_values(report.entry(kind)) != full:
                out.incorrect += reps
                out.notes.append(f"chunk {i}: {kind.tag.value}@{kind.rate:g} differs from full")
        out.values = {"mean_n1": [report.mean_n1]}
        for entry in report.entries:
            out.values[_label(entry.kind)] = _entry_values(entry)
        if self.reference is not None and i < len(self.reference):
            bad = mismatched_groups(out.values, self.reference[i])
            out.incorrect += reps * len(bad)
            out.notes.extend(f"chunk {i}: {g} differs from the reference" for g in bad)
        out.incorrect = min(out.incorrect, out.attempted)
        return out


def _label(kind) -> str:
    return kind.tag.value if kind.rate is None else f"{kind.tag.value}@{kind.rate:g}"


def _entry_values(entry) -> list[float]:
    return [entry.emse_total, entry.emse_alpha, *entry.emse_beta, float(entry.failed)]


class CliFiles:
    """Rounds of CLI commands on a freshly written dataset file."""

    KINDS = ("full", "under-w", "under-bc", "over-w", "over-bc")

    def __init__(self, rl, seed: int, scale: Scale, fault: bool = False) -> None:
        self.rl, self.seed, self.scale = rl, seed, scale
        # the round-trip check must not be traced, so keep the original loader
        self.load_dataset = rl.cli.load_dataset
        self.fit_extra = ["--max-iter", "1"] if fault else []
        self.work = WORK / f"{os.getpid()}-{id(self)}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.reference: list | None = None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def dataset(self, s: int):
        """Marginal logistic data, rate about 1.3%, drawn here with numpy."""
        rng = np.random.default_rng(s)
        x = rng.standard_normal((self.scale.rows, len(CLI_BETA)))
        p = 1.0 / (1.0 + np.exp(-(CLI_ALPHA + x @ np.asarray(CLI_BETA))))
        y = (rng.random(self.scale.rows) < p).astype(np.int64)
        return self.rl.Dataset(x=x, y=y)

    def commands(self, s: int, data_path: str) -> list[tuple[str, str, list[str]]]:
        """(label, group, argv) for every CLI call of one round."""
        beta = ",".join(f"{b:g}" for b in CLI_BETA)
        alpha = ["--alpha-t", f"{CLI_ALPHA:g}", "--seed", str(s)]
        calls = [
            ("fit", "fit under-bc", ["fit", "--data", data_path, "--estimator", "under-bc", "--pi0", "0.05", *alpha]),
            ("fit", "fit over-bc", ["fit", "--data", data_path, "--estimator", "over-bc", "--lambda", "10", *alpha]),
        ]
        calls = [(label, group, argv + self.fit_extra) for label, group, argv in calls]
        for kind in self.KINDS:
            argv = ["variance", "--kind", kind, "--beta", beta, "--pi0", "0.05", "--lambda", "10"]
            calls.append(("variance", f"variance {kind}", argv + ["--m", str(self.scale.m), *alpha]))
        sc = self.scale
        argv = ["table1", "--n", sc.table1_n, "--rate", sc.table1_rate, "--reps", str(sc.table1_reps)]
        calls.append(("table1", "table1", argv + ["--threads", "1", "--seed", str(s)]))
        return calls

    def op(self, i: int, clock: Clock) -> Outcome:
        s = op_seed(self.seed, i)
        data = self.dataset(s)
        data_path = str(self.work / "data.csv")
        calls = self.commands(s, data_path)
        out = Outcome(units=1, attempted=1 + len(calls))

        with clock.timed("save"):
            self.rl.cli.save_dataset(data_path, data)
        back = self.load_dataset(data_path)
        if not (
            back.x.shape == data.x.shape
            and back.x.tobytes() == np.ascontiguousarray(data.x).tobytes()
            and np.array_equal(back.y, data.y)
        ):
            out.incorrect += 1
            out.notes.append(f"round {i}: save_dataset/load_dataset round trip is not exact")

        for label, group, argv in calls:
            result_path = self.work / "result.csv"
            result_path.unlink(missing_ok=True)
            before = clock.unconverged()
            code, err = self._call(clock, label, argv + ["--out", str(result_path)])
            if code != 0:
                out.failed += 1
                out.notes.append(f"round {i}: {group} exited {code}: {err.strip()}")
                continue
            header, rows = _read_table(result_path)
            if label == "table1":
                failed = any(row[header.index("failed")] != "0" for row in rows)
                numbers = [float(v) for row in rows for v in row]
            else:
                fields = dict(rows)
                failed = label == "fit" and fields.get("converged") != "1"
                numbers = [float(v) for k, v in rows if k not in UNCOMPARED_FIELDS]
            if failed or clock.unconverged() > before:
                out.failed += 1
                out.notes.append(f"round {i}: {group} reported a failed or unconverged fit")
            if not all(math.isfinite(v) for v in numbers):
                out.incorrect += 1
                out.notes.append(f"round {i}: {group} printed a non-finite value")
            out.values[group] = numbers

        if self.reference is not None and i < len(self.reference):
            bad = mismatched_groups(out.values, self.reference[i])
            out.incorrect += len(bad)
            out.notes.extend(f"round {i}: {g} differs from the reference" for g in bad)
        out.incorrect = min(out.incorrect, out.attempted - out.failed)
        return out

    def _call(self, clock: Clock, label: str, argv: list[str]) -> tuple[int, str]:
        sink, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            try:
                with clock.timed(label):
                    code = self.rl.cli.main(argv)
            except SystemExit as exit_:  # argparse rejected the arguments
                code = exit_.code if isinstance(exit_.code, int) else 2
        return code, err.getvalue()


def run_op(workload, i: int, gauge: SpeedGauge | None = None, tracer=None) -> Outcome:
    clock = Clock(gauge, tracer)
    outcome = workload.op(i, clock)
    outcome.calls = clock.calls
    return outcome


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


WORKLOADS = ("sweep_under", "sweep_over", "cli_files")


def make_workload(rl, name: str, seed: int, scale: Scale, fault: str | None = None):
    if name == "cli_files":
        return CliFiles(rl, seed, scale, fault=fault is not None)
    solver = None
    if fault == "diverge":
        solver = rl.SolverSettings(divergence_bound=1.0)
    elif fault == "max_iter":
        solver = rl.SolverSettings(max_iter=1)
    return Sweep(rl, name.removeprefix("sweep_"), seed, scale, solver)


def prepare(rl, name: str, seed: int, scale: Scale):
    """Set-up up to the first timed operation: inputs, reference, warm-up."""
    workload = make_workload(rl, name, seed, scale)
    if seed == DEFAULT_SEED and scale == FULL:
        workload.reference = load_reference(name)
    # a tiny operation loads lazily imported code and fills caches
    warm = make_workload(rl, name, seed, TINY)
    try:
        run_op(warm, 0)
    finally:
        warm.close()
    return workload


def load_reference(name: str) -> list:
    stored = json.loads(REFERENCE.read_text())
    if stored["seed"] != DEFAULT_SEED or stored["scale"] != asdict(FULL):
        raise SystemExit(f"bench: {REFERENCE.name} was recorded for another seed or scale")
    return stored["workloads"][name]


def probe_setup(name: str, seed: int, tiny: bool, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready to time.

    The times are at the reference speed of SpeedGauge.
    """
    gauge = SpeedGauge()
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    argv += ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.communicate(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        times.append(gauge.adjust(elapsed))
    return times


def measure(workload, seconds: float, tracer) -> tuple[list, list]:
    """Run operations until `seconds` have passed (at least one).

    With a tracer each operation runs twice, untraced and traced, in
    alternating order, so the pair gives the tracing overhead.
    """
    plain, traced = [], []
    gauge = SpeedGauge()
    start = time.perf_counter()
    i = 0
    while True:
        order = (None,) if tracer is None else (None, tracer) if i % 2 == 0 else (tracer, None)
        for t in order:
            (plain if t is None else traced).append(run_op(workload, i, gauge, t))
        i += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced


def typical_rate(outcomes: list) -> float:
    """Work units per second of a typical operation.

    Its time is the sum, over the operation's timed steps in order, of each
    step's median across operations, so a slow spell during one step of
    one CLI round does not count as a slow round.  A sweep operation has
    one step, so this is its median chunk time.
    """
    steps = max(len(o.calls) for o in outcomes)
    seconds = sum(
        statistics.median(o.calls[k].seconds for o in outcomes if k < len(o.calls))
        for k in range(steps)
    )
    return outcomes[0].units / seconds


def end_to_end(plain: list, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "reps_per_s": (typical_rate(plain), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain: list, traced: list, tracer) -> dict:
    scales = [1.0] * len(tracer.spans)
    for call in (c for o in traced for c in o.calls):
        for k in call.spans:
            scales[k] = call.seconds / call.raw
    busy, self_s, calls, roots = spans.summarize(tracer.spans, scales)
    units = sum(o.units for o in traced)
    wall = sum(o.seconds for o in traced)
    counts = tracer.counts
    row_iters = counts["model.fit_mle.row_iters"]
    ns_per_row_iter = 1e9 * busy["model.fit_mle"] / row_iters if row_iters else 0.0

    def cmd(label: str) -> float:
        times = [c.seconds for o in plain for c in o.calls if c.label == label]
        return statistics.median(times) if times else 0.0

    rep, count = "s/rep", "count/rep"
    m = {
        "model.fit_mle.calls": (calls["model.fit_mle"] / units, count),
        "model.fit_mle.busy_s": (busy["model.fit_mle"] / units, rep),
        "model.fit_mle.iterations": (counts["model.fit_mle.iterations"] / units, count),
        "model.fit_mle.row_iters": (row_iters / units, count),
        "model.fit_mle.ns_per_row_iter": (ns_per_row_iter, "ns"),
        "model.fit_mle.nonconverged": (counts["model.fit_mle.nonconverged"] / units, count),
        "estimators.fit_estimator.self_s": (self_s["estimators.fit_estimator"] / units, rep),
        "estimators.realize_design.self_s": (self_s["estimators.realize_design"] / units, rep),
        "sampling.undersample.busy_s": (busy["sampling.undersample"] / units, rep),
        "sampling.oversample.busy_s": (busy["sampling.oversample"] / units, rep),
        "sampling.substream.calls": (calls["sampling.substream"] / units, count),
        "sampling.substream.busy_s": (busy["sampling.substream"] / units, rep),
        "simulation.generate_marginal.busy_s": (busy["simulation.generate_marginal"] / units, rep),
        "simulation.generate_conditional.busy_s": (busy["simulation.generate_conditional"] / units, rep),
        "simulation.run_experiment.self_s": (self_s["simulation.run_experiment"] / units, rep),
        "simulation.GaussianLaw.sample.busy_s": (busy["simulation.GaussianLaw.sample"] / units, rep),
        "asymptotics.moment_matrix.calls": (calls["asymptotics.moment_matrix"] / units, count),
        "asymptotics.moment_matrix.busy_s": (busy["asymptotics.moment_matrix"] / units, rep),
        "asymptotics.v.self_s": (
            sum(v for k, v in self_s.items() if k.startswith("asymptotics.v_")) / units,
            rep,
        ),
        "cli.load_dataset.busy_s": (busy["cli.load_dataset"] / units, rep),
        "cli.load_dataset.rows": (counts["cli.load_dataset.rows"] / units, "rows/rep"),
        "cli.save_dataset.busy_s": (busy["cli.save_dataset"] / units, rep),
        "cli.save_dataset.rows": (counts["cli.save_dataset.rows"] / units, "rows/rep"),
        "cli.main.self_s": (self_s["cli.main"] / units, rep),
        "cli.cmd.save_s": (cmd("save"), "s"),
        "cli.cmd.fit_s": (cmd("fit"), "s"),
        "cli.cmd.variance_s": (cmd("variance"), "s"),
        "cli.cmd.table1_s": (cmd("table1"), "s"),
    }
    for layer in spans.LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (layer_self / units, rep)
    m["trace.wall_s"] = (wall / units, rep)
    m["trace.unattributed_s"] = ((wall - roots) / units, rep)
    m["trace.overhead_pct"] = (100.0 * (typical_rate(plain) / typical_rate(traced) - 1.0), "%")
    return m


def environment(rl) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "rarelogit_file": str(Path(rl.__file__).resolve().relative_to(ROOT)),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _openblas() -> list[dict]:
    """Version and thread count of every OpenBLAS this process has loaded."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in (p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        # plain OpenBLAS, and the prefixed 64- and 32-bit-index builds numpy and scipy ship
        for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_"), ("scipy_openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                info.update(config=config().decode(), threads=threads())
                break
        found.append(info)
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_benchmark(rl, name: str, seed: int, seconds: float, trace: bool, scale=FULL, probes=SETUP_PROBES) -> dict:
    setup = probe_setup(name, seed, scale is TINY, probes)
    workload = prepare(rl, name, seed, scale)
    tracer = spans.Tracer() if trace else None
    try:
        plain, traced = measure(workload, seconds, tracer)
    finally:
        workload.close()
    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes)
    incorrect = sum(o.incorrect for o in outcomes)
    failed = sum(o.failed for o in outcomes) + incorrect
    env = environment(rl)
    metrics = per_layer(plain, traced, tracer) if trace else end_to_end(plain, setup)

    print("# env " + json.dumps(env))
    print(f"# workload {name} seed {seed}: {len(plain)} untraced and {len(traced)} traced operations")
    print(f"# setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
    factors = [c.seconds / c.raw for o in outcomes for c in o.calls]
    print(f"# speed adjustment per block: median {statistics.median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f}")
    raw_rate = statistics.median(o.units / o.raw_seconds for o in plain)
    print(f"# reps_per_s before speed adjustment: median {raw_rate:.6g}")
    for label in sorted({c.label for o in plain for c in o.calls}):
        times = [c.seconds for o in plain for c in o.calls if c.label == label]
        print(f"# {label}: median {statistics.median(times):.4f} s over {len(times)} calls")
    print(f"# failed_frac {failed / attempted:.6g} of ops_attempted {attempted}")
    for note in [n for o in outcomes for n in o.notes][:20]:
        print(f"# failure: {note}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"# {key} = {value:.6g} {unit}")
    if trace:
        OUT.mkdir(exist_ok=True)
        dump = {"env": env, "workload": name, "seed": seed, "counts": dict(tracer.counts), "spans": tracer.spans}
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(dump))
    return {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_reference(rl, counts: dict) -> None:
    stored = {"seed": DEFAULT_SEED, "scale": asdict(FULL), "workloads": {}}
    for name, count in counts.items():
        workload = make_workload(rl, name, DEFAULT_SEED, FULL)
        try:
            values = []
            for i in range(count):
                out = run_op(workload, i)
                if out.failed or out.incorrect:
                    raise SystemExit(f"bench: {name} op {i} failed: {out.notes}")
                values.append(out.values)
        finally:
            workload.close()
        stored["workloads"][name] = values
        print(f"recorded {count} operations of {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")


def _require(condition: bool, message: object = "self-check failed") -> None:
    # not `assert`, which `python -O` strips
    if not condition:
        raise AssertionError(message)


def self_check(rl) -> None:
    """Tiny-size run of every workload that checks the benchmark itself."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]}, 1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _require(set(WORKLOADS) == {w["name"] for w in spec["workloads"]})
    for name in WORKLOADS:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run_benchmark(rl, name, 1, 0.0, bool(trace), scale=TINY, probes=1)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            _require(emitted == units[trace], f"{name} trace {trace}: metrics {emitted} != {units[trace]}")
            _require(all(math.isfinite(v["value"]) for v in result["metrics"].values()))
            _require(result["correct"] and result["failed"] == 0, f"{name}: {result}")

        workload = make_workload(rl, name, 1, TINY)
        try:
            good = run_op(workload, 0)
            _require(good.failed == 0 and good.incorrect == 0, good.notes)
            wrong = {k: list(v) for k, v in good.values.items()}
            group = sorted(wrong)[-1]
            wrong[group][0] = wrong[group][0] * (1 + 1e-3) + 1e-3
            workload.reference = [wrong]
            _require(run_op(workload, 0).incorrect > 0, f"{name}: a wrong reference value passed")
        finally:
            workload.close()

        faults = ("diverge", "max_iter") if name != "cli_files" else ("max_iter",)
        for fault in faults:
            workload = make_workload(rl, name, 1, TINY, fault=fault)
            tracer = spans.Tracer()
            try:
                plain, traced = measure(workload, 0.0, tracer)
            finally:
                workload.close()
            _require(all(o.failed > 0 for o in traced), f"{name}: forced {fault} failure was not counted")
            if fault == "diverge" or name == "cli_files":
                _require(all(o.failed > 0 for o in plain), f"{name}: forced {fault} failure was not counted")
        print(f"self-check {name}: ok", file=sys.stderr)
    print("self-check passed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    rl = import_program()
    if args.self_check:
        self_check(rl)
        return 0
    if args.record_reference:
        record_reference(rl, {"sweep_under": 100, "sweep_over": 100, "cli_files": 12})
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        prepare(rl, args.workload, args.seed, TINY if args.tiny else FULL).close()
        print("ready", flush=True)
        return 0
    result = run_benchmark(rl, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

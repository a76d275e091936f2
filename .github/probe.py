"""The programs of the CI workflow's steps, one subcommand each (see COMMANDS).

For example `python .github/probe.py sweeps head=. base=/tmp/parent`, with a `git worktree` of the base
commit at /tmp/parent.  The four reports take trees as NAME=PATH, skip a tree whose path is missing, run
each tree's work in a fresh child process with its src on PYTHONPATH, and print one markdown section.
"""

import json
import os
import resource
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# The probes' sizes are constants, so that every run compares with the last.
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_under", "sweep_over", "cli_files")
# the sweeps' rate grids, as bench/run.py has them
UNDER_RATES = (0.005, 0.01, 0.2, 0.5, 0.8, 1.0)
OVER_RATES = (0.0, 3.48, 11.18, 53.6)
FAULT_CALLS, FAULT_REPS, FAULT_RUNS = 10, 2, 3
PASSES_SEED, PASSES_REPS = 41, 30
CLI_ROWS = 200_000
CLI_VARIANCE = ["variance", "--kind", "obc", "--beta", "1,-0.5,0.25", "--lambda", "10", "--alpha-t", "-5"]


def table(title, columns, rows, left=2):
    """Print a markdown section: title, then rows under columns, the first left of them left-aligned."""
    rule = "|" + "|".join(["---"] * left + ["---:"] * (len(columns) - left)) + "|"
    lines = ("| " + " | ".join(row) + " |" for row in rows)
    print(f"### {title}\n", "| " + " | ".join(columns) + " |", rule, *lines, "", sep="\n")


def present(trees):
    """(name, root) of each NAME=PATH tree whose path exists."""
    return [(name, Path(path).resolve()) for name, path in (t.split("=", 1) for t in trees) if Path(path).is_dir()]


# Each child's usage comes from wait4, as RUSAGE_CHILDREN is the largest over
# all children so far.  A child takes over this process's peak RSS at exec,
# so this process imports no numpy.
def run(root, *args):
    """The stdout and the usage of a fresh Python process running args with the tree at root."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with subprocess.Popen([sys.executable, *map(str, args)], env=env, stdout=subprocess.PIPE, text=True) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"{' '.join(child.args)} failed")
    return out, usage


def bench(root, workload, *args):
    return json.loads(run(root, root / "bench" / "run.py", "--workload", workload, *args)[0].splitlines()[-1])


def reference():
    """Fail unless each workload's seed-0 run matches bench/reference.json with no failed operation."""
    results = {workload: bench(ROOT, workload, "--seconds", "0") for workload in WORKLOADS}
    print(*(f"{workload} {result}" for workload, result in results.items()), sep="\n")
    return not all(r["correct"] is True and r["failed"] == 0 for r in results.values())


def avx512():
    """Exit 0 where numpy can run AVX-512 kernels."""
    from numpy._core._multiarray_umath import __cpu_features__

    return not __cpu_features__["AVX512F"]


# cli.main sets one BLAS thread on its first call, so this turns that off and
# fails unless the thread count OPENBLAS_NUM_THREADS asks for still holds
# after the last command.
def golden_threads(out):
    """Write tests/test_golden.py's outputs to out with the environment's BLAS thread count."""
    sys.path.insert(0, str(ROOT / "src"))
    from rarelogit import cli, simulation

    cli._one_blas_thread = lambda: None
    sys.argv = ["tests/test_golden.py", out]
    runpy.run_path(str(ROOT / "tests" / "test_golden.py"), run_name="__main__")
    threads, want = simulation._blas_threads(), min(int(os.environ["OPENBLAS_NUM_THREADS"]), os.cpu_count())
    print(f"BLAS threads after the run: {threads} (want {want})")
    return threads != want


def code_size(*trees):
    """Non-blank lines of each src/rarelogit module, 0 where a tree lacks it."""
    trees = present(trees)
    modules = sorted({p.name for _, root in trees for p in (root / "src" / "rarelogit").glob("*.py")})

    def lines(path):
        return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip()) if path.exists() else 0

    counts = [[lines(root / "src" / "rarelogit" / module) for _, root in trees] for module in modules]
    rows = [[module, *map(str, row)] for module, row in zip(modules, counts)]
    rows.append(["total", *(str(sum(column)) for column in zip(*counts))])
    table("Non-blank lines in src/rarelogit", ["module", *(name for name, _ in trees)], rows, left=1)


# One law-mode `variance` at 1e3, 1e6 and 1e7 draws, and one over-bc and one
# under-w at pi0 = 1 `fit --alpha-t` on a CLI_ROWS x 3 dataset CSV.  The
# 1e3-draw call's time is mostly process start, which the package's imports
# (numpy, and no scipy) set.  The plug-in holds one row block at a time, so
# the two larger variance peaks should be about equal; a design that keeps
# every row fits its dataset without a copy.
def cli_memory(*trees):
    """Peak RSS and seconds of one fresh CLI process per command and tree."""
    trees = present(trees)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "fit_2e5x3.csv")
        run(trees[0][1], __file__, "dataset", data)
        fit = ["fit", "--data", data, "--alpha-t", "-4", "--estimator"]
        commands = {
            "variance --kind full --beta 1 --m 1000": ["variance", "--kind", "full", "--beta", "1", "--m", "1000"],
            "variance --m 1e6": [*CLI_VARIANCE, "--m", "1000000"],
            "variance --m 1e7": [*CLI_VARIANCE, "--m", "10000000"],
            "fit over-bc, 2e5 x 3": [*fit, "over-bc", "--lambda", "10"],
            "fit under-w --pi0 1, 2e5 x 3": [*fit, "under-w", "--pi0", "1"],
        }
        for label, args in commands.items():
            for name, root in trees:
                start = time.perf_counter()
                _, usage = run(root, "-m", "rarelogit.cli", *args, "--out", os.devnull)
                rows.append([label, name, f"{usage.ru_maxrss / 1024:.1f}", f"{time.perf_counter() - start:.2f}"])
    table("CLI commands: peak RSS and seconds, one fresh process each",
          ["command", "tree", "peak RSS (MB)", "seconds"], rows)


# Serial run_experiment calls shaped like each benchmark sweep (n = 1e5, the
# sweep's estimators), one fresh process per sweep, tree and table.
# `faults` reads minor page faults and seconds per replication over
# FAULT_CALLS calls of FAULT_REPS, as bench/run.py makes them, after one
# warm-up call.  One process's fault count can move several-fold from run
# to run, so each tree runs FAULT_RUNS of them, in turn with the other
# trees, and the table gives their median and range.  `passes` counts, by
# wrappers, Newton kernel passes (evaluate, with the log-likelihood, and
# derivatives, without it), fit_estimator calls and design draws per
# replication of one call of PASSES_REPS at PASSES_SEED, and the extra
# passes: evaluations - iterations - 1 summed over the fit_estimator
# results, that is the line-search halvings outside the pilot.
def sweeps(*trees):
    """The `faults` and `passes` tables of both sweeps."""
    trees = present(trees)
    faults = {(workload, name): [] for workload in WORKLOADS[:2] for name, _ in trees}
    for workload in WORKLOADS[:2]:
        for _ in range(FAULT_RUNS):
            for name, root in trees:
                faults[workload, name].append(json.loads(run(root, __file__, "sweep", "faults", workload)[0]))
    rows = []
    for (workload, name), runs in faults.items():
        minor, seconds = zip(*runs)
        rows.append([workload, name, spread(minor, ",.0f"), spread(seconds, ".4f")])
    table(f"Serial replications: minor page faults and seconds per replication, median (min-max) of {FAULT_RUNS} runs",
          ["workload", "tree", "minor faults/rep", "seconds/rep"], rows)
    passes = [[workload, name, *json.loads(run(root, __file__, "sweep", "passes", workload)[0])]
              for workload in WORKLOADS[:2] for name, root in trees]
    table("Serial replications: kernel passes, fits and design draws per replication",
          ["workload", "tree", "evaluate", "derivatives", "fit_estimator", "realize_design", "extra passes"], passes)


def spread(values, spec):
    """The median of values and their min-max range, each formatted by spec."""
    return f"{statistics.median(values):{spec}} ({min(values):{spec}}-{max(values):{spec}})"


def sweep(job, workload):
    """Child process of sweeps: print the cells of job's row for workload."""
    import rarelogit as rl
    from rarelogit import model, simulation

    F, K = rl.EstimatorFamily, rl.EstimatorKind
    families, rates = {"sweep_under": ((F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED), UNDER_RATES),
                       "sweep_over": ((F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED), OVER_RATES)}[workload]
    kinds = (K(F.FULL),) + tuple(K(f, r) for r in rates for f in families)
    design = rl.MarginalLogisticDesign(theta=rl.Coefficients(-6.0, [1.0]), law=rl.GaussianLaw.standard(1))

    def call(seed, reps):
        rl.run_experiment(rl.ExperimentConfig(design=design, n=100_000, reps=reps, estimators=kinds, base_seed=seed))

    if job == "faults":
        call(0, FAULT_REPS)  # warm-up
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        for seed in range(1, FAULT_CALLS + 1):
            call(seed, FAULT_REPS)
        seconds, reps = time.perf_counter() - start, FAULT_CALLS * FAULT_REPS
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return print(json.dumps([faults / reps, seconds / reps]))
    names = ((model._Kernel, "evaluate"), (model._Kernel, "derivatives"),
             (simulation, "fit_estimator"), (simulation, "realize_design"))
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1  # designs are drawn on the helper thread, the rest on this one
            result = original(*args, **kwargs)
            if name == "fit_estimator":  # passes beyond the start and one per step
                counts["extra"] += result.evaluations - result.iterations - 1
            return result
        return wrapper

    for owner, name in names:
        setattr(owner, name, counting(name, getattr(owner, name)))
    call(PASSES_SEED, PASSES_REPS)
    print(json.dumps([f"{counts[name] / PASSES_REPS:.2f}" for name in [name for _, name in names] + ["extra"]]))


def dataset(path):
    """Child process of cli-memory: write its rare-events dataset CSV to path."""
    import numpy as np

    import rarelogit as rl
    from rarelogit.cli import save_dataset

    rng = rl.substream(1)
    x = rng.standard_normal((CLI_ROWS, 3))
    y = (rng.random(CLI_ROWS) < 1 / (1 + np.exp(4 - x @ [1.0, -0.5, 0.25]))).astype(int)
    save_dataset(path, rl.Dataset(x=x, y=y))


# Runner timings are noisy, which is one more reason it only reports.
def kernel_speed(*trees):
    """Per-row cost and step counts of the Newton kernel on the sweeps, traced by bench/run.py."""
    rows = []
    for workload in WORKLOADS[:2]:
        for name, root in present(trees):
            metrics = bench(root, workload, "--seconds", "5", "--trace", "1")["metrics"]
            value = [metrics["model.fit_mle." + key]["value"] for key in ("ns_per_row_iter", "iterations", "row_iters")]
            rows.append([workload, name, f"{value[0]:.1f}", f"{value[1]:.1f}", f"{value[2]:,.0f}"])
    table("Newton kernel on the sweeps (bench/run.py --seconds 5 --trace 1)",
          ["workload", "tree", "ns_per_row_iter", "iterations/rep", "row_iters/rep"], rows)


# the last two are the child processes of the reports, run with the tree they measure
COMMANDS = {"reference": reference, "avx512": avx512, "golden-threads": golden_threads, "code-size": code_size,
            "cli-memory": cli_memory, "sweeps": sweeps, "kernel-speed": kernel_speed,
            "sweep": sweep, "dataset": dataset}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in COMMANDS:
        sys.exit(__doc__)
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))

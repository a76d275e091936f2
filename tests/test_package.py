"""The package's public surface, what importing it loads, the layout of its tests, and CI's probe."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import rarelogit

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / ".github" / "probe.py"

PUBLIC = [
    "AllOneClassError",
    "AllReplicationsFailedError",
    "CalibrationError",
    "Coefficients",
    "ConditionalGaussianDesign",
    "Dataset",
    "DesignKind",
    "EmseReport",
    "EstimatorEmse",
    "EstimatorFamily",
    "EstimatorKind",
    "ExperimentConfig",
    "FitResult",
    "GaussianLaw",
    "MarginalLogisticDesign",
    "NoControlsSelectedError",
    "RareLogitError",
    "SCALING_LABEL",
    "SampleDesign",
    "SeparationError",
    "SingularHessianError",
    "SingularMomentMatrixError",
    "SolverSettings",
    "VarianceReport",
    "calibrate_intercept",
    "covariance",
    "effective_sample_size",
    "emse",
    "fit_estimator",
    "fit_mle",
    "full_mle",
    "generate_conditional",
    "generate_marginal",
    "gradient",
    "hessian",
    "limit_constants",
    "loewner_ge",
    "log_likelihood",
    "moment_matrix",
    "over_bias_corrected",
    "over_weighted",
    "oversample",
    "oversampling_variance_factor",
    "predict_prob",
    "realize_design",
    "required_constants",
    "run_experiment",
    "substream",
    "under_bias_corrected",
    "under_weighted",
    "undersample",
    "v_full",
    "v_over_bc",
    "v_over_weighted",
    "v_under_bc",
    "v_under_weighted",
    "weighted_moment_inequality_check",
]


# the test modules that span layers; every other one is named after the
# src/rarelogit module whose tests it holds
CROSS_LAYER = ["test_acceptance.py", "test_equivalences.py", "test_golden.py", "test_package.py",
               "test_table_properties.py"]


def test_one_test_module_per_layer():
    # a new test joins its layer's module, so a reader who looks for a
    # module's tests opens one file
    tests = Path(__file__).resolve().parent
    layers = [f"test_{p.stem}.py" for p in (tests.parent / "src" / "rarelogit").glob("*.py") if p.stem != "__init__"]
    assert sorted(p.name for p in tests.glob("test_*.py")) == sorted(layers + CROSS_LAYER)


def test_all_lists_each_public_name_once():
    assert sorted(rarelogit.__all__) == PUBLIC
    assert len(rarelogit.__all__) == len(PUBLIC)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rarelogit import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(rarelogit, name)


def test_import_loads_no_scipy_until_calibration(tmp_path):
    # A fresh process that imports the package and its CLI holds no scipy
    # module, so no command pays to load it; calibrate_intercept imports it
    # where it integrates, and its value keeps every bit.
    script = (
        "import sys\n"
        "import rarelogit, rarelogit.cli\n"
        "print(sum(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "alpha = rarelogit.calibrate_intercept([1.0], rarelogit.GaussianLaw.standard(1), 0.02)\n"
        "print(alpha.hex(), 'scipy.integrate' in sys.modules)\n"
    )
    src = str(Path(rarelogit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=120, cwd=tmp_path,
    )
    assert run.stdout.split() == ["0", "-0x1.170d65f980000p+2", "True"]


def test_probe_code_size_skips_a_missing_tree(tmp_path):
    # on a push there is no base worktree, so its column is left out
    argv = [sys.executable, str(PROBE), "code-size", "head=.", f"base={tmp_path / 'missing'}"]
    run = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60, cwd=ROOT)
    lines = run.stdout.splitlines()
    assert lines[:4] == ["### Non-blank lines in src/rarelogit", "", "| module | head |", "|---|---:|"]
    assert sum(line.startswith("### ") for line in lines) == 1
    counts = {path.name: len(re.findall(r"(?m)^.*\S.*$", path.read_text()))
              for path in sorted((ROOT / "src" / "rarelogit").glob("*.py"))}
    assert lines[4:-2] == [f"| {module} | {n} |" for module, n in counts.items()]
    assert lines[-2:] == [f"| total | {sum(counts.values())} |", ""]


def constant(path, name):
    """The literal value the script at path assigns to name, read without running it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(target, "id", None) for target in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def test_probe_runs_the_benchmark_workloads_and_rate_grids():
    # the sweeps report mirrors bench/run.py's sweeps, and reference runs each workload
    for name in ("WORKLOADS", "UNDER_RATES", "OVER_RATES"):
        assert constant(PROBE, name) == constant(ROOT / "bench" / "run.py", name), name

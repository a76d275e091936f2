"""The package's public surface and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import rarelogit

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

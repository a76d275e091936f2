"""The package's public surface."""

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

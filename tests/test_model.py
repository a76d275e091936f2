"""Tests of rarelogit.model: the Newton kernel, the solver built on it, its
line search and pilot start, and the kernel buffer a thread's fits share.

Each section after the first opens with a comment that says what it pins.
"""

import copy
import functools
import itertools
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import rarelogit
from rarelogit import (
    AllOneClassError,
    Coefficients,
    ConditionalGaussianDesign,
    Dataset,
    DesignKind,
    EstimatorFamily,
    EstimatorKind,
    ExperimentConfig,
    GaussianLaw,
    MarginalLogisticDesign,
    RareLogitError,
    SampleDesign,
    SeparationError,
    SingularHessianError,
    SolverSettings,
    cli,
    covariance,
    estimators,
    fit_estimator,
    fit_mle,
    full_mle,
    generate_conditional,
    generate_marginal,
    gradient,
    hessian,
    log_likelihood,
    model,
    oversample,
    predict_prob,
    realize_design,
    run_experiment,
    simulation,
    substream,
)
from rarelogit.cli import load_dataset, save_dataset

from _oracles import (
    fd_gradient,
    fd_jacobian,
    gradient_direct,
    grid_max_loglik,
    hessian_direct,
    inclusion_divided_direct,
    loglik_direct,
    newton_one_rule,
    oversample_counts_direct,
    weight_check_message,
    weighted_labels_direct,
)


def random_instance(rng, n=25, d=2):
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.4).astype(int)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == n:
        y[0] = 0
    w = rng.uniform(0.0, 2.0, size=n)
    theta = Coefficients(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5, size=d))
    return Dataset(x=x, y=y), w, theta


class TestPredictProb:
    def test_zero_coefficients_give_half(self):
        theta = Coefficients(0.0, [0.0, 0.0])
        for row in ([0.0, 0.0], [3.0, -7.0], [100.0, 100.0]):
            assert predict_prob(theta, row) == 0.5

    def test_known_values(self):
        # high-precision evaluations of the logistic function
        assert predict_prob(Coefficients(-6.0, [1.0]), [0.0]) == pytest.approx(
            0.0024726231566347743, rel=1e-12
        )
        assert predict_prob(Coefficients(-4.39, [1.0]), [1.0]) == pytest.approx(
            0.032609455306765595, rel=1e-12
        )

    def test_no_overflow_at_large_predictors(self):
        theta = Coefficients(0.0, [1.0])
        for eta in (700.0, -700.0):
            p = predict_prob(theta, [eta])
            assert np.isfinite(p)
            assert 0.0 <= p <= 1.0
        # exp(-eta) overflows for eta < -709.78; scipy's expit returns 0.0
        # there without a warning, and a RuntimeWarning is an error here
        for eta in (710.0, 800.0, 1e4):
            assert predict_prob(theta, [eta]) == 1.0
            assert predict_prob(theta, [-eta]) == 0.0

    def test_sigmoid_matches_scipy_expit_within_4_ulps(self):
        from scipy.special import expit

        eta = np.linspace(-745.0, 745.0, 2_000_001)
        got = rarelogit.model._expit(eta.copy())
        want = expit(eta)
        # both are nonnegative, so their bit patterns are ordered like them
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_prob(Coefficients(0.0, [1.0, 2.0]), [1.0])


class TestLogLikelihood:
    def test_zero_weights_give_zero(self):
        data = Dataset(x=np.ones((4, 1)), y=[1, 0, 1, 0])
        theta = Coefficients(0.3, [-0.7])
        assert log_likelihood(data, np.zeros(4), theta) == 0.0

    def test_single_row_at_origin(self):
        data = Dataset(x=np.zeros((1, 1)), y=[1])
        assert log_likelihood(data, [1.0], Coefficients(0.0, [0.0])) == pytest.approx(
            -math.log(2.0), rel=1e-15
        )

    def test_additivity_two_rows(self):
        data = Dataset(x=np.zeros((2, 1)), y=[1, 0])
        value = log_likelihood(data, [1.0, 1.0], Coefficients(0.0, [0.0]))
        assert value == pytest.approx(-2.0 * math.log(2.0), rel=1e-15)

    def test_negative_weight_rejected(self):
        data = Dataset(x=np.zeros((2, 1)), y=[1, 0])
        with pytest.raises(ValueError):
            log_likelihood(data, [1.0, -1.0], Coefficients(0.0, [0.0]))

    def test_weight_shape_rejected(self):
        data = Dataset(x=np.zeros((2, 1)), y=[1, 0])
        with pytest.raises(ValueError):
            log_likelihood(data, [1.0], Coefficients(0.0, [0.0]))


class TestDerivatives:
    def test_zero_weights(self):
        data = Dataset(x=np.ones((3, 2)), y=[1, 0, 1])
        theta = Coefficients(0.5, [1.0, -1.0])
        assert_array_equal(gradient(data, np.zeros(3), theta), np.zeros(3))
        assert_array_equal(hessian(data, np.zeros(3), theta), np.zeros((3, 3)))

    def test_single_row_values(self):
        data = Dataset(x=np.zeros((1, 1)), y=[1])
        theta = Coefficients(0.0, [0.0])
        assert_array_equal(gradient(data, [1.0], theta), [0.5, 0.0])
        assert_array_equal(
            hessian(data, [1.0], theta), [[-0.25, 0.0], [0.0, 0.0]]
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        data, w, theta = random_instance(np.random.default_rng(seed))
        ana = gradient(data, w, theta)
        fd = fd_gradient(
            lambda t: log_likelihood(data, w, Coefficients.from_vector(t)),
            theta.as_vector(),
        )
        assert np.max(np.abs(ana - fd)) <= 1e-6 * max(1.0, np.max(np.abs(ana)))

    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_matches_finite_differences(self, seed):
        data, w, theta = random_instance(np.random.default_rng(seed))
        ana = hessian(data, w, theta)
        fd = fd_jacobian(
            lambda t: gradient(data, w, Coefficients.from_vector(t)),
            theta.as_vector(),
        )
        assert np.max(np.abs(ana - fd)) <= 1e-6 * max(1.0, np.max(np.abs(ana)))

    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_negative_semidefinite(self, seed):
        data, w, theta = random_instance(np.random.default_rng(100 + seed))
        h = hessian(data, w, theta)
        scale = max(1.0, abs(np.trace(h)))
        assert np.max(np.linalg.eigvalsh(h)) <= 1e-10 * scale


class TestFitMle:
    def test_intercept_only_closed_form(self):
        data = Dataset(x=np.zeros((10, 1)), y=[1] * 4 + [0] * 6)
        fit = fit_mle(data, np.ones(10))
        assert fit.converged and fit.stop_reason == "converged"
        assert fit.theta.alpha == pytest.approx(math.log(4 / 6), abs=1e-9)
        assert fit.theta.beta[0] == 0.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20)
        y = (rng.random(20) < 1.0 / (1.0 + np.exp(-(0.5 + x)))).astype(int)
        data = Dataset(x=x[:, None], y=y)
        fit = fit_mle(data, np.ones(20))
        a_star, b_star = grid_max_loglik(x, y, np.ones(20))
        assert fit.theta.alpha == pytest.approx(a_star, abs=1e-3)
        assert fit.theta.beta[0] == pytest.approx(b_star, abs=1e-3)

    def test_weight_scaling_exact_for_unit_weights(self):
        rng = np.random.default_rng(11)
        data = Dataset(x=rng.standard_normal((30, 2)), y=(rng.random(30) < 0.4).astype(int))
        base = fit_mle(data, np.ones(30))
        scaled = fit_mle(data, 7.3 * np.ones(30))
        assert_array_equal(base.theta.as_vector(), scaled.theta.as_vector())
        assert base.iterations == scaled.iterations
        assert base.grad_max_norm == scaled.grad_max_norm

    def test_weight_scaling_exact_for_power_of_two(self):
        # scaling by powers of two is exact in binary floating point, so the
        # normalized weights and hence the whole Newton path are identical
        rng = np.random.default_rng(12)
        data = Dataset(x=rng.standard_normal((30, 2)), y=(rng.random(30) < 0.4).astype(int))
        w = rng.uniform(0.25, 4.0, size=30)
        base = fit_mle(data, w)
        for k in (0.125, 32.0):
            scaled = fit_mle(data, k * w)
            assert_array_equal(base.theta.as_vector(), scaled.theta.as_vector())

    def test_weight_scaling_general_within_rounding(self):
        # a general k perturbs each normalized weight by <= 1 ulp, so the
        # argmax agrees to machine precision rather than bit-for-bit
        rng = np.random.default_rng(13)
        data = Dataset(x=rng.standard_normal((30, 2)), y=(rng.random(30) < 0.4).astype(int))
        w = rng.uniform(0.25, 4.0, size=30)
        base = fit_mle(data, w)
        scaled = fit_mle(data, 7.3 * w)
        assert_allclose(
            base.theta.as_vector(), scaled.theta.as_vector(), rtol=0, atol=1e-12
        )

    def test_monotone_ascent(self):
        rng = np.random.default_rng(5)
        data, w, _ = random_instance(rng, n=60, d=2)
        steps = fit_mle(data, w).iterations
        # a fit capped at k steps stops at the k-th iterate of the uncapped fit;
        # its objective is the solver's, on the max-rescaled weights
        objectives = [
            log_likelihood(data, w / w.max(), fit_mle(data, w, settings=SolverSettings(max_iter=k)).theta)
            for k in range(1, steps + 1)
        ]
        assert len(objectives) >= 2
        eps = np.finfo(float).eps
        for prev, curr in zip(objectives, objectives[1:]):
            # nondecreasing up to the float resolution of the objective
            assert curr >= prev - 16.0 * eps * (1.0 + abs(prev))

    def test_stationarity_when_converged(self):
        rng = np.random.default_rng(6)
        data, w, _ = random_instance(rng, n=80, d=3)
        fit = fit_mle(data, w, settings=SolverSettings(tol=1e-8))
        assert fit.converged
        assert fit.grad_max_norm <= 1e-8
        # the reported norm refers to the max-rescaled weights
        g = gradient(data, w / w.max(), fit.theta)
        assert np.max(np.abs(g)) <= 1e-8

    def test_neg_hessian_symmetric_psd(self):
        rng = np.random.default_rng(8)
        data, w, _ = random_instance(rng, n=40, d=2)
        fit = fit_mle(data, w)
        h = fit.neg_hessian
        assert_array_equal(h, h.T)
        assert np.min(np.linalg.eigvalsh(h)) >= -1e-12 * max(1.0, np.trace(h))

    def test_init_is_respected(self):
        data = Dataset(x=np.zeros((10, 1)), y=[1] * 5 + [0] * 5)
        fit = fit_mle(data, np.ones(10), init=Coefficients(0.0, [0.0]))
        assert fit.converged
        assert fit.iterations == 0  # alpha-hat = log(1) = 0 is the optimum

    def test_all_one_class(self):
        data = Dataset(x=np.zeros((4, 1)), y=[1, 1, 1, 1])
        with pytest.raises(AllOneClassError):
            fit_mle(data, np.ones(4))

    def test_all_one_class_via_zero_weights(self):
        data = Dataset(x=np.zeros((4, 1)), y=[1, 1, 0, 0])
        with pytest.raises(AllOneClassError):
            fit_mle(data, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_separation_detected(self):
        x = 0.5 * np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
        y = (x > 0).astype(int)
        with pytest.raises(SeparationError):
            fit_mle(Dataset(x=x[:, None], y=y), np.ones(6))

    def test_singular_hessian_detected(self):
        # saturated start: all probabilities underflow to zero, curvature
        # vanishes while the gradient does not
        data = Dataset(x=np.zeros((4, 1)), y=[1, 1, 0, 0])
        with pytest.raises(SingularHessianError):
            fit_mle(data, np.ones(4), init=Coefficients(-800.0, [0.0]))

    def test_overflowing_curvature_is_a_numeric_failure(self):
        # finite covariates near 1e200 square to inf in the Hessian
        x = np.array([[1e200], [2e200], [-1e200], [3e200], [5e199]])
        data = Dataset(x=x, y=[1, 0, 1, 0, 0])
        with np.errstate(over="ignore"), pytest.raises(RareLogitError):
            fit_mle(data, np.ones(5))

    def test_max_iter_cap(self):
        rng = np.random.default_rng(9)
        data, _, _ = random_instance(rng, n=50, d=2)
        fit = fit_mle(data, np.ones(50), settings=SolverSettings(max_iter=1))
        assert not fit.converged
        assert fit.iterations <= 1
        assert fit.stop_reason == "max_iter"

    def test_fit_bytes_do_not_depend_on_the_blas_thread_count(self):
        # a 2e5 x 3 fit crosses many kernel blocks; in one whole-array pass
        # OpenBLAS splits the sums over its threads and moves the last bits.
        # The rare 1e5 x 1 fit starts from a pilot fit on a row subset.
        script = (
            "import numpy as np\n"
            "from rarelogit import Dataset, fit_mle\n"
            "for seed, n, d, alpha in ((7, 200_000, 3, -3.0), (8, 100_000, 1, -6.0)):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    x = rng.standard_normal((n, d))\n"
            "    p = 1 / (1 + np.exp(-alpha - x @ [1.0, 0.25, -0.5][:d]))\n"
            "    fit = fit_mle(Dataset(x=x, y=(rng.random(n) < p).astype(int)), np.ones(n))\n"
            "    assert (fit.pilot_iterations > 0) == (d == 1)\n"
            "    print(fit.iterations, (fit.theta.as_vector().tobytes() + fit.neg_hessian.tobytes()).hex())\n"
        )
        src = str(Path(rarelogit.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_bad_solver_arguments(self):
        data = Dataset(x=np.zeros((2, 1)), y=[1, 0])
        with pytest.raises(ValueError):
            fit_mle(data, np.ones(2), settings=SolverSettings(tol=0.0))
        with pytest.raises(ValueError):
            fit_mle(data, np.ones(2), settings=SolverSettings(max_iter=0))

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"tol": np.inf}, "tol must be positive and finite"),
            ({"max_iter": np.nan}, "max_iter must be an integer"),
            ({"max_iter": 2.5}, "max_iter must be an integer"),
            ({"max_iter": np.inf}, "max_iter must be an integer"),
            # True == 1, but a flag is not a step count
            ({"max_iter": True}, "max_iter must be an integer, got True"),
        ],
    )
    def test_nonfinite_tol_and_noninteger_max_iter_rejected(self, settings, message):
        # tol=inf stops at the start point; max_iter=nan never stops the loop
        with pytest.raises(ValueError, match=message):
            SolverSettings(**settings)

    @pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
    def test_bad_divergence_bound_rejected(self, bound):
        # rejected as SolverSettings rejects it, not read as separated data
        # (0, -1) or as no bound at all (nan)
        data, w, _ = random_instance(np.random.default_rng(8), n=40, d=1)
        with pytest.raises(ValueError, match="divergence_bound must be positive"):
            fit_mle(data, w, settings=SolverSettings(divergence_bound=bound))


def non_identified_designs():
    """Rare-event labels on x1, beside second columns that add no information.

    Each design's columns are collinear with the intercept's and x1's, so
    the log-likelihood is flat along one direction and its maximizer is a
    line, not a point.
    """
    n = 2000
    rng = np.random.default_rng(0)
    x1 = rng.standard_normal(n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x1 - 2.0)))).astype(int)
    designs = {f"x2={c}": np.full(n, c) for c in (0.1, 0.3, 2.0, 3.0, 7.0, 1000.0)}
    designs |= {f"x2={a:.4g}*x1": a * x1 for a in (1.0, 0.3, -2.5, 1000.0, 1.0 / 3.0)}
    designs["x2=x1+1"] = x1 + 1.0
    x2 = rng.standard_normal(n)
    designs = {name: np.column_stack([x1, col]) for name, col in designs.items()}
    designs["x3=x1-x2"] = np.column_stack([x1, x2, x1 - x2])
    return {name: Dataset(x=x, y=y) for name, x in designs.items()}


NON_IDENTIFIED = non_identified_designs()


class TestNonIdentified:
    """A design whose coefficients are not identified has no MLE to report."""

    @pytest.mark.parametrize("name", NON_IDENTIFIED)
    def test_collinear_or_constant_columns_raise(self, name):
        data = NON_IDENTIFIED[name]
        with pytest.raises(SingularHessianError, match="not identified"):
            fit_mle(data, np.ones(data.n))

    def test_a_sampled_estimator_on_collinear_columns_raises(self):
        data = NON_IDENTIFIED["x2=1*x1"]
        kind = EstimatorKind(EstimatorFamily.UNDER_WEIGHTED, 0.3)
        design = realize_design(kind, data, substream(0))
        with pytest.raises(SingularHessianError):
            fit_estimator(kind, data, design)

    def test_fewer_rows_than_coefficients_raise(self):
        # 3 rows cannot pin 4 coefficients: the fit names the singular
        # Newton system, not the separation any 3 rows in general position show
        x = np.random.default_rng(0).standard_normal((3, 3))
        with pytest.raises(SingularHessianError):
            fit_mle(Dataset(x=x, y=[1, 0, 0]), np.ones(3))


class TestDomainTypes:
    def test_dataset_counts(self):
        data = Dataset(x=np.zeros((5, 2)), y=[1, 0, 0, 1, 0])
        assert (data.n, data.d, data.n1, data.n0) == (5, 2, 2, 3)

    def test_dataset_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 1)), y=[1, 2])

    def test_dataset_rejects_fractional_labels(self):
        # checked on the values as given, before any integer cast
        for y in ([0.5, 1.9, 0.0], [1.0, 0.999], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                Dataset(x=np.zeros((len(y), 1)), y=y)
        data = Dataset(x=np.zeros((3, 1)), y=[1.0, 0.0, True])
        assert_array_equal(data.y, [1, 0, 1])

    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(x=np.array([[np.nan]]), y=[1])

    def test_dataset_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((0, 1)), y=[])

    def test_coefficients_round_trip(self):
        theta = Coefficients(1.5, [2.0, -3.0])
        assert_array_equal(theta.as_vector(), [1.5, 2.0, -3.0])
        back = Coefficients.from_vector(theta.as_vector())
        assert back.alpha == theta.alpha
        assert_array_equal(back.beta, theta.beta)

    def test_coefficients_reject_nonfinite(self):
        with pytest.raises(ValueError):
            Coefficients(np.inf, [0.0])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Dataset(x=np.zeros(3), y=[0, 1, 0]), "x must be 2-D [(]n, d[)], got ndim=1"),
            (lambda: Dataset(x=np.zeros((3, 1)), y=[0, 1]), "y must have shape [(]3,[)], got [(]2,[)]"),
            (lambda: Coefficients(0.0, np.zeros((2, 2))), "beta must be a vector"),
            (
                lambda: log_likelihood(Dataset(x=np.zeros((2, 1)), y=[1, 0]), [1.0, np.nan], Coefficients(0.0, [0.0])),
                "weights must be finite",
            ),
            (
                lambda: gradient(Dataset(x=np.zeros((2, 1)), y=[1, 0]), [1.0, 1.0], Coefficients(0.0, [0.0, 0.0])),
                "beta has length 2, dataset has d=1",
            ),
            (lambda: predict_prob(Coefficients(0.0, [1.0]), [np.inf]), "x_row must be finite"),
        ],
        ids=["x-1d", "y-length", "beta-matrix", "nan-weight", "theta-length", "inf-row"],
    )
    def test_malformed_arguments_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_objective_direct_formula_agrees(self):
        rng = np.random.default_rng(3)
        data, w, theta = random_instance(rng)
        direct = loglik_direct(data.x, data.y, w, theta.alpha, theta.beta)
        assert log_likelihood(data, w, theta) == pytest.approx(direct, rel=1e-14)


# ----------------------------------------------------------------------------
# Property tests of the Newton kernel and of the solver built on it.
# ----------------------------------------------------------------------------

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 3)


def random_problem(seed, n, d):
    """Arbitrary labels and weights, about a fifth of the weights zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n)
    w = rng.uniform(0.0, 2.0, n)
    w[rng.random(n) < 0.2] = 0.0
    return x, y, w


def logistic_problem(seed, n, d, alpha):
    """Labels drawn from a logistic model, so the MLE usually exists."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    eta = alpha + x @ rng.uniform(-1.5, 1.5, d)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    return Dataset(x=x, y=y), rng.uniform(0.25, 4.0, n)


def check_against_direct_formulas(seed, n, d, scale):
    # scale 300 puts |eta| in the hundreds, where exp(eta) overflows
    x, y, w = random_problem(seed, n, d)
    rng = np.random.default_rng(seed + 1)
    alpha, beta = rng.normal(0.0, scale), rng.normal(0.0, scale, d)
    data, theta = Dataset(x=x, y=y), Coefficients(alpha, beta)
    # error bounds: a few ulps of the summed magnitudes of the terms
    z = np.abs(np.column_stack([np.ones(n), x]))
    eta_bound = z @ np.abs(theta.as_vector())
    l_err = log_likelihood(data, w, theta) - loglik_direct(x, y, w, alpha, beta)
    assert abs(l_err) <= 1e-13 * (w @ (eta_bound + 1.0))
    g_err = gradient(data, w, theta) - gradient_direct(x, y, w, alpha, beta)
    assert np.all(np.abs(g_err) <= 1e-13 * (w @ z))
    h_err = hessian(data, w, theta) - hessian_direct(x, y, w, alpha, beta)
    assert np.all(np.abs(h_err) <= 1e-13 * (z.T @ (w[:, None] * z)))


class TestKernelAgainstDirectFormulas:
    @PROPERTY
    @given(
        seed=seeds,
        n=st.integers(1, 40),
        d=dims,
        scale=st.sampled_from([0.1, 1.0, 30.0, 300.0]),
    )
    def test_objective_gradient_hessian(self, seed, n, d, scale):
        check_against_direct_formulas(seed, n, d, scale)

    @pytest.mark.parametrize("scale", [1.0, 300.0])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1, model.BLOCK_ROWS + 17])
    def test_across_kernel_blocks(self, extra, d, scale):
        # the kernel sums its blocks of BLOCK_ROWS rows: one row short of a
        # block, one block, one row past it, and into a third block
        check_against_direct_formulas(extra + 2, model.BLOCK_ROWS + extra, d, scale)


class TestSolverProperties:
    @PROPERTY
    @given(
        seed=seeds,
        n=st.integers(150, 400),
        d=st.integers(1, 2),
        alpha=st.floats(-3.5, 0.5),
    )
    def test_log_odds_start_reaches_zero_start_optimum(self, seed, n, d, alpha):
        # Two converged runs may stop anywhere with max|grad| <= tol, about
        # tol / (smallest curvature) apart; tol=1e-10 puts that well below 1e-9.
        data, w = logistic_problem(seed, n, d, alpha)
        assume(data.n1 >= 5 and data.n0 >= 5)
        try:
            default = fit_mle(data, w, settings=SolverSettings(tol=1e-10))
            zero = fit_mle(
                data, w, init=Coefficients(0.0, np.zeros(d)), settings=SolverSettings(tol=1e-10)
            )
        except RareLogitError:
            assume(False)
        assert default.converged and zero.converged
        a, b = default.theta.as_vector(), zero.theta.as_vector()
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 60), d=dims)
    def test_default_start_is_the_intercept_only_mle(self, seed, n, d):
        # covariates that are all zero carry nothing, so the start is the MLE
        _, y, w = random_problem(seed, n, d)
        assume(w @ y > 0 and w @ (1 - y) > 0)
        fit = fit_mle(Dataset(x=np.zeros((n, d)), y=y), w)
        assert fit.converged and fit.iterations == 0
        log_odds = np.log((w @ y) / (w @ (1 - y)))
        assert fit.theta.alpha == pytest.approx(log_odds, rel=1e-12, abs=1e-12)

    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 60), d=dims, power=st.integers(-40, 40))
    def test_power_of_two_weight_scaling_is_bit_identical(self, seed, n, d, power):
        # k * w / max(k * w) == w / max(w) exactly when k is a power of two
        x, y, w = random_problem(seed, n, d)
        data = Dataset(x=x, y=y)

        def outcome(weights):
            try:
                fit = fit_mle(data, weights)
            except RareLogitError as err:
                return type(err).__name__
            return (
                fit.theta.as_vector().tobytes(),
                fit.neg_hessian.tobytes(),
                fit.grad_max_norm,
                fit.iterations,
                fit.converged,
            )

        assert outcome(2.0**power * w) == outcome(w)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_rare_event_full_fit_step_count(seed):
    # the log-odds start sits at the rare-event intercept; from zero the same
    # fits take 10 Newton steps
    theta_t = Coefficients(-6.0, [1.0])
    data = generate_marginal(100_000, theta_t, GaussianLaw.standard(1), substream(seed))
    fit = full_mle(data)
    assert fit.converged
    assert fit.iterations <= 7


# ----------------------------------------------------------------------------
# The kernel buffer model._lending lends the fits of one thread.
#
# Inside a block, every kernel built on the thread reuses one buffer instead
# of allocating its own.  These tests pin what that reuse must not change:
# results of concurrent fits, results already returned, fits after a failed
# fit or after a subset that outgrew the buffer, subsets gathered on another
# thread and pickling; and the allocation it saves, and how nested blocks
# share and free the buffer.
# ----------------------------------------------------------------------------

def rare_data(n, d, seed=0, alpha=-3.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    p = 1.0 / (1.0 + np.exp(-(alpha + x @ np.linspace(1.0, -0.5, d))))
    return Dataset(x=x, y=(rng.random(n) < p).astype(np.int64))


def converged_fingerprint(fit):
    return (
        fit.theta.as_vector().tobytes(),
        fit.neg_hessian.tobytes(),
        fit.grad_max_norm,
        fit.iterations,
        fit.evaluations,
        fit.converged,
        fit.pilot_iterations,
    )


def fit_problems(data):
    """Eight fits on data and on a subset of it, with float and count weights."""
    rng = np.random.default_rng(1)
    sub = data.take(np.flatnonzero(rng.random(data.n) < 0.4))
    problems = []
    for target in (data, sub):
        problems.append((target, np.ones(target.n)))
        problems.append((target, rng.uniform(0.5, 2.0, target.n)))
        problems.append((target, target.y * rng.poisson(3.0, target.n) + 1))
        problems.append((target, 1.0 / (0.2 + 0.8 * target.y)))
    return problems


@pytest.mark.parametrize(
    "n, alpha",
    [
        (model.BLOCK_ROWS // 2, -3.0),
        (3 * model.BLOCK_ROWS + 17, -3.0),
        # every fit, the 40% subset's too, is rare and large enough for a pilot
        (int(2.6 * model.PILOT_MIN_ROWS), -5.5),
    ],
    ids=["one-block", "four-blocks", "pilot"],
)
def test_concurrent_fits_match_sequential_fits_bit_for_bit(n, alpha):
    # the 40% subsets of the four-block dataset span two kernel blocks; a
    # pilot's kernel shares the lent buffer of the fit it starts, and each
    # worker fits in its own block while this thread holds another
    data = rare_data(n, 2, alpha=alpha)
    problems = fit_problems(data)
    expected = [converged_fingerprint(fit_mle(target, w)) for target, w in problems]
    took_pilot = [fit[-1] > 0 for fit in expected]
    assert all(took_pilot) if alpha == -5.5 else not any(took_pilot)
    for _ in range(3):
        got = [None] * len(problems)
        barrier = threading.Barrier(4)

        def work(k):
            barrier.wait()
            with model._lending():
                for i in range(k, len(problems), 4):
                    got[i] = converged_fingerprint(fit_mle(*problems[i]))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        with model._lending():
            fit_mle(*problems[0])
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert got == expected


def test_returned_arrays_survive_later_fits():
    data = rare_data(5_000, 3)
    rng = np.random.default_rng(2)
    theta = Coefficients(-2.0, [0.5, -0.5, 0.25])
    with model._lending():
        first = fit_mle(data, np.ones(data.n))
        grad = gradient(data, np.ones(data.n), theta)
        hess = hessian(data, np.ones(data.n), theta)
        kept = [a.copy() for a in (first.theta.beta, first.neg_hessian, grad, hess)]
        fit_mle(data, rng.uniform(0.1, 1.0, data.n))
        fit_mle(data.take(np.arange(0, data.n, 3)), np.ones(-(-data.n // 3)))
        log_likelihood(data, rng.uniform(0.1, 1.0, data.n), theta)
        buf = model._lent.buf
    for now, then in zip((first.theta.beta, first.neg_hessian, grad, hess), kept):
        assert not np.shares_memory(now, buf)
        assert_array_equal(now, then)


@pytest.mark.parametrize(
    "error, x, rows, init",
    [
        # rows 0-5 alone are separated by the sign of x
        (SeparationError, [-1.0, -0.75, -0.5, 0.5, 0.75, 1.0, 0.15, -0.15], np.arange(6), None),
        # a saturated start: curvature underflows while the gradient does not
        (SingularHessianError, np.zeros(8), np.arange(8), Coefficients(-800.0, [0.0])),
    ],
)
def test_a_failed_fit_in_a_block_leaves_the_next_fit_unchanged(error, x, rows, init):
    data = Dataset(x=np.reshape(x, (8, 1)), y=[0, 0, 0, 1, 1, 1, 0, 1])
    sub = data.take(rows)
    expected = converged_fingerprint(fit_mle(data, np.ones(8)))
    with model._lending():
        with pytest.raises(error):
            fit_mle(sub, np.ones(sub.n), init=init)
        assert converged_fingerprint(fit_mle(data, np.ones(8))) == expected


def test_a_malformed_start_raises_before_a_kernel_takes_the_buffer():
    data = rare_data(20_000, 1)
    with model._lending():
        with pytest.raises(ValueError, match="beta has length 2, dataset has d=1"):
            fit_mle(data, np.ones(data.n), init=Coefficients(0.0, [1.0, 2.0]))
        assert model._lent.buf.size == 0


def test_subset_longer_than_its_parent_and_the_parent_after_it_fit_exactly():
    data = rare_data(300, 2)
    rows = np.r_[np.arange(300), np.arange(0, 300, 2)]
    sub = data.take(rows)
    fresh_sub = Dataset(x=data.x[rows], y=data.y[rows])
    fresh = Dataset(x=data.x.copy(), y=data.y.copy())
    expected = converged_fingerprint(fit_mle(fresh, np.ones(300)))
    expected_sub = converged_fingerprint(fit_mle(fresh_sub, np.ones(450)))
    with model._lending():
        assert converged_fingerprint(fit_mle(data, np.ones(300))) == expected
        # the subset outgrows the buffer the parent's fit made
        assert converged_fingerprint(fit_mle(sub, np.ones(450))) == expected_sub
        assert converged_fingerprint(fit_mle(data, np.ones(300))) == expected


def test_subsets_gathered_on_the_design_helper_read_the_parent_zt(monkeypatch):
    # run_experiment gathers each under-sampled subset on its helper thread
    # from the parent's zt, which the dataset holds from when it was made
    gathered, checked = {}, []
    take, fit_estimator = Dataset.take, simulation.fit_estimator

    def recording_take(self, rows):
        sub = take(self, rows)
        gathered[id(sub)] = (threading.get_ident(), self.zt)
        return sub

    def checking_fit(kind, data, design, *args, **kwargs):
        if design is None:
            return fit_estimator(kind, data, design, *args, **kwargs)
        sub = design.data
        thread, parent_zt = gathered[id(sub)]
        checked.append((thread != threading.get_ident(), parent_zt is data.zt))
        return fit_estimator(kind, data, design, *args, **kwargs)

    monkeypatch.setattr(Dataset, "take", recording_take)
    monkeypatch.setattr(simulation, "fit_estimator", checking_fit)
    U, B = EstimatorFamily.UNDER_WEIGHTED, EstimatorFamily.UNDER_BIAS_CORRECTED
    config = ExperimentConfig(
        design=ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=0.1),
        n=3_000,
        reps=2,
        estimators=(EstimatorKind(EstimatorFamily.FULL), EstimatorKind(U, 0.3), EstimatorKind(B, 0.3)),
        base_seed=4,
    )
    assert all(entry.failed == 0 for entry in run_experiment(config).entries)
    assert checked == [(True, True)] * 4


@pytest.mark.parametrize("d", [1, 3])
def test_fitted_datasets_pickle_and_copy(d):
    data = rare_data(400, d)
    sub = data.take(np.arange(0, 400, 2))
    fits = [converged_fingerprint(fit_mle(target, np.ones(target.n))) for target in (data, sub)]
    for target, fit in zip((data, sub), fits):
        for clone in (pickle.loads(pickle.dumps(target)), copy.deepcopy(target)):
            for name in ("x", "y", "zt"):
                assert_array_equal(getattr(clone, name), getattr(target, name))
            assert (clone.n1, clone.n0) == (target.n1, target.n0)
            assert converged_fingerprint(fit_mle(clone, np.ones(clone.n))) == fit


def test_repeat_fit_in_a_block_allocates_no_length_n_temporary():
    n = 100_000
    data = rare_data(n, 1)
    w = np.random.default_rng(3).uniform(0.5, 1.5, n)
    with model._lending():
        fit_mle(data, w)  # the first fit allocates the lent buffer
        tracemalloc.start()
        try:
            fit_mle(data, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 * n


def test_a_nested_block_reuses_the_outer_buffer_and_only_the_outer_block_frees_it():
    data = rare_data(2_000, 2)
    small = data.take(np.arange(0, data.n, 4))
    assert not hasattr(model._lent, "buf")
    with model._lending():
        fit_mle(data, np.ones(data.n))
        outer = model._lent.buf
        with model._lending():
            assert model._lent.buf is outer
            fit_mle(small, np.ones(small.n))
        assert model._lent.buf is outer
        # an inner block that raises frees nothing either
        with pytest.raises(RuntimeError, match="inner"), model._lending():
            fit_mle(small, np.ones(small.n))
            raise RuntimeError("inner")
        assert model._lent.buf is outer
        lent = weakref.ref(outer)
        del outer
    assert not hasattr(model._lent, "buf")
    assert lent() is None


# ----------------------------------------------------------------------------
# One lent kernel buffer per chunk of replications and per CLI command.
#
# run_experiment runs its replications in chunks, each in one
# model._lending block, and cli.main runs each command in one, so only the
# first fits of a chunk or command allocate a kernel buffer.  These tests
# pin that saving, that no replication keeps its predecessor's zt alive,
# and that nothing lent outlives the chunk or the command.
# ----------------------------------------------------------------------------

N = 20_000
# the kernel buffer of a d = 1 fit on all N rows; zt is 2 N doubles, less
BUFFER_BYTES = 8 * (2 * N + 6 * min(N, model.BLOCK_ROWS))


def sweep_config(reps):
    F, K = EstimatorFamily, EstimatorKind
    kinds = (K(F.FULL), K(F.OVER_WEIGHTED, 3.0), K(F.OVER_BIAS_CORRECTED, 3.0),
             K(F.UNDER_WEIGHTED, 0.2), K(F.UNDER_BIAS_CORRECTED, 0.2), K(F.UNDER_WEIGHTED, 1.0))
    design = MarginalLogisticDesign(theta=Coefficients(-4.0, [1.0]), law=GaussianLaw.standard(1))
    return ExperimentConfig(design=design, n=N, reps=reps, estimators=kinds, base_seed=5)


def kernel_buffers():
    """Live blocks of at least a kernel buffer's size allocated in model.py since tracing began."""
    snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, model.__file__)])
    return sum(1 for trace in snapshot.traces if trace.size >= BUFFER_BYTES)


RUN_REPLICATION, FIT_ESTIMATORS = simulation._run_replication, simulation._fit_estimators
# what counting_fits records, per replication, in the process that runs it
BUFFERS, SEEN = [], []


def counting_fits(config, data, designs):
    earlier = sum(zt() is not None for _, zt, _ in SEEN)
    fits = FIT_ESTIMATORS(config, data, designs)
    BUFFERS.append(kernel_buffers())
    SEEN.append((earlier, weakref.ref(data.zt), weakref.ref(model._lent.buf)))
    return fits


def counting_replication(config, s):
    # module level, so that a process pool can send it to its workers
    tracemalloc.start()
    try:
        _, fits = RUN_REPLICATION(config, s)
    finally:
        tracemalloc.stop()
    return BUFFERS.pop(), fits


@pytest.fixture
def counted_buffers(monkeypatch):
    """Make each replication report, in place of its n1, the kernel buffers it allocated.

    The count is taken after the replication's fits, while its dataset and
    the lent buffer are alive.  Each replication in this process also
    records, in the list the fixture returns, how many earlier
    replications' zt were alive when its fits began, and weak references
    to its zt and to the lent buffer after its fits.
    """
    BUFFERS.clear()
    SEEN.clear()
    monkeypatch.setattr(simulation, "_fit_estimators", counting_fits)
    monkeypatch.setattr(simulation, "_run_replication", counting_replication)
    yield SEEN
    SEEN.clear()


def test_serial_replications_after_the_first_allocate_no_kernel_buffer(counted_buffers):
    reps = 4
    report = run_experiment(sweep_config(reps))
    assert all(entry.failed == 0 for entry in report.entries)
    # the first replication allocates the one buffer, and no other does
    assert report.mean_n1 * reps == 1
    # every replication fitted in the one lent buffer
    assert all(buf() is counted_buffers[0][2]() for _, _, buf in counted_buffers)
    # no replication began its fits with an earlier replication's zt alive,
    # and once the call returned nothing lent was left
    assert [earlier for earlier, _, _ in counted_buffers] == [0] * reps
    assert not hasattr(model._lent, "buf")
    assert all(zt() is None and buf() is None for _, zt, buf in counted_buffers)


def test_a_failing_loop_leaves_no_lent_buffer(monkeypatch):
    fit_estimators, lent = simulation._fit_estimators, []

    def failing_fits(config, data, designs):
        if len(lent) == 1:
            raise RuntimeError("second replication failed")
        fits = fit_estimators(config, data, designs)
        lent.append(weakref.ref(model._lent.buf))
        return fits

    monkeypatch.setattr(simulation, "_fit_estimators", failing_fits)
    with pytest.raises(RuntimeError, match="second replication failed"):
        run_experiment(sweep_config(3))
    assert lent[0]() is None
    assert not hasattr(model._lent, "buf")


def test_pool_workers_allocate_one_kernel_buffer_per_chunk(counted_buffers):
    reps, threads = 16, 2
    # chunks of max(1, 16 // 8) = 2 replications
    chunks = reps // 2
    report = run_experiment(sweep_config(reps), threads=threads)
    assert all(entry.failed == 0 for entry in report.entries)
    # each chunk allocated one buffer, in its first replication
    assert report.mean_n1 * reps == chunks
    # nothing is lent in this process
    assert not hasattr(model._lent, "buf")


@pytest.fixture
def kernels(monkeypatch):
    """Record, per kernel built, whether it fits in the first kernel's lent buffer, and a weak reference to its own."""
    built, init = [], model._Kernel.__init__

    def recording_init(self, data, w, scale):
        init(self, data, w, scale)
        buf = model._lent.buf
        first = built[0][1]() if built else buf
        built.append((np.shares_memory(self.w, buf) and buf is first, weakref.ref(buf)))

    monkeypatch.setattr(model._Kernel, "__init__", recording_init)
    return built


def test_the_fits_of_one_command_share_one_lent_buffer(tmp_path, kernels):
    # table1 runs run_experiment, whose blocks nest in the command's
    argv = ["table1", "--n", "1000,1000", "--rate", "0.02,0.05", "--reps", "3", "--seed", "4",
            "--threads", "1", "--out", str(tmp_path / "t1.csv")]
    assert cli.main(argv) == 0
    # one full-data fit per replication, 3 replications per (n, rate)
    assert [shared for shared, _ in kernels] == [True] * 6
    assert all(buf() is None for _, buf in kernels)
    assert not hasattr(model._lent, "buf")


def test_a_command_that_exits_3_leaves_no_lent_buffer(tmp_path, kernels):
    x = 0.5 * np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    path = tmp_path / "sep.csv"
    cli.save_dataset(str(path), Dataset(x=x[:, None], y=(x > 0).astype(int)))
    argv = ["fit", "--data", str(path), "--estimator", "full", "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 3
    assert [shared for shared, _ in kernels] == [True]
    assert kernels[0][1]() is None
    assert not hasattr(model._lent, "buf")


# ----------------------------------------------------------------------------
# Weights built from the case rows are the n-row formulas' bits.
#
# A Dataset finds its case rows once, and the kernel's w * y, the weighted
# families' counts / pi(y), the over-sampling counts y v + 1 and the fit's
# one-scan weight check are built from them or from one min and one max.
# These properties compare each with the n-row formula it replaced, kept in
# _oracles, bit for bit, and the weight check's messages with the two-pass
# check's.
# ----------------------------------------------------------------------------

sizes = st.integers(1, 600)
# the case share, from none to all
case_rates = st.sampled_from([0.0, 0.005, 0.1, 0.5, 1.0])
UNDER_RATES = (0.005, 1.0)
OVER_RATES = (0.0, 53.6)


def labelled(seed, n, case_rate, d=1):
    rng = np.random.default_rng(seed)
    return Dataset(x=rng.standard_normal((n, d)), y=(rng.random(n) < case_rate).astype(np.int64)), rng


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def fingerprint(fit):
    return (fit.theta.as_vector().tobytes(), fit.neg_hessian.tobytes(), fit.grad_max_norm,
            fit.iterations, fit.evaluations, fit.stop_reason, fit.pilot_iterations)


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates, counts=st.booleans())
def test_kernel_weights_times_labels_are_the_label_products(seed, n, case_rate, counts):
    data, rng = labelled(seed, n, case_rate)
    sub = data.take(np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)))
    # the parent, its subset and the parent again share one buffer, so each
    # kernel must overwrite every row the one before it wrote
    for target in (data, sub, data):
        if counts:
            w = target.y * rng.poisson(3.0, target.n) + rng.integers(0, 2, target.n)
        else:
            w = rng.uniform(0.0, 2.0, target.n)
        scale = max(w.max(), 1)
        kernel = model._Kernel(target, w, scale)
        assert_array_equal(bits(kernel.w), bits(np.divide(w, scale)))
        assert_array_equal(bits(kernel.wy), bits(weighted_labels_direct(w, target.y, scale)))


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates)
def test_case_rows_are_the_positive_labels(seed, n, case_rate):
    data, rng = labelled(seed, n, case_rate)
    sub = data.take(rng.integers(0, n, rng.integers(1, 2 * n + 1)))
    for target in (data, sub):
        assert_array_equal(target._cases, np.flatnonzero(target.y))
        assert target._cases.size == target.n1


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates)
def test_inverse_probability_weights_are_counts_over_pi(seed, n, case_rate):
    data, rng = labelled(seed, n, case_rate)
    for kind, rates in ((DesignKind.UNDERSAMPLE, UNDER_RATES), (DesignKind.OVERSAMPLE, OVER_RATES)):
        for rate in rates:
            if kind is DesignKind.UNDERSAMPLE:
                design = SampleDesign(data, kind, rate, rng.random(n) < 0.5)
            else:
                design = oversample(data, rate, rng)
            used = design.data
            selected = np.ones(used.n) if design.counts is None else design.counts
            drawn = rng.integers(1, 60, used.n)
            for counts in (selected, drawn, drawn * 0.75, drawn.astype(np.float32)):
                kept = counts.copy()
                got = kind.divide_by_inclusion(rate, used, counts)
                assert got.dtype == np.float64
                want = inclusion_divided_direct(kind.value, rate, counts, used.y)
                assert_array_equal(bits(got), bits(want))
                assert_array_equal(counts, kept)  # the division left the counts alone
                assert counts.dtype == kept.dtype


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates, rate=st.sampled_from(OVER_RATES + (3.48,)))
def test_oversample_counts_are_labels_times_draws_plus_one(seed, n, case_rate, rate):
    data, _ = labelled(seed, n, case_rate)
    got = oversample(data, rate, substream(seed, 1)).counts
    draws = substream(seed, 1).poisson(lam=rate, size=n)
    want = oversample_counts_direct(data.y, draws)
    assert got.dtype == want.dtype
    assert_array_equal(got, want)


WEIGHTED = [(EstimatorFamily.UNDER_WEIGHTED, rate) for rate in UNDER_RATES] + [
    (EstimatorFamily.OVER_WEIGHTED, rate) for rate in OVER_RATES
]


@pytest.mark.parametrize("family, rate", WEIGHTED, ids=lambda v: getattr(v, "value", v))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=seeds)
def test_weighted_fits_are_fits_on_counts_over_pi(family, rate, seed):
    rng = np.random.default_rng(seed)
    n = 400
    x = rng.standard_normal((n, 2))
    y = (rng.random(n) < 1 / (1 + np.exp(2.0 - x @ [1.0, -0.5]))).astype(np.int64)
    data = Dataset(x=x, y=y)
    kind = EstimatorKind(family, rate)
    design = estimators.realize_design(kind, data, rng)
    used = design.data
    counts = np.ones(used.n) if design.counts is None else design.counts
    direct = inclusion_divided_direct(design.kind.value, rate, counts, used.y)
    fresh = Dataset(x=used.x.copy(), y=used.y.copy())
    try:
        want = fingerprint(fit_mle(fresh, direct))
    except RareLogitError:
        with pytest.raises(RareLogitError):
            fit_estimator(kind, data, design)
        return
    assert fingerprint(fit_estimator(kind, data, design)) == want


@PROPERTY
@given(seed=seeds, n=st.integers(20, 400), counts=st.booleans(), zeros=st.sampled_from([0.0, 0.3, 0.9]))
def test_zero_weight_drop_fits_the_positive_rows(seed, n, counts, zeros):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    y = (rng.random(n) < 1 / (1 + np.exp(1.0 - x[:, 0]))).astype(np.int64)
    w = rng.poisson(2.0, n) + 1 if counts else rng.uniform(0.1, 2.0, n)
    w[rng.random(n) < zeros] = 0
    active = np.flatnonzero(w)
    outcomes = []
    for data, weights in ((Dataset(x=x, y=y), w), (Dataset(x=x[active], y=y[active]), w[active])):
        try:
            outcomes.append(fingerprint(fit_mle(data, weights)))
        except (RareLogitError, ValueError) as err:
            outcomes.append(type(err))
    if active.size == 0:
        # no rows left: the drop reports one class, as the old two comparisons did
        assert outcomes[0] is model.AllOneClassError
    else:
        assert outcomes[0] == outcomes[1]


BAD_VALUES = {
    "nan": [np.nan],
    "inf": [np.inf],
    "-inf": [-np.inf],
    "negative": [-2.0],
    "nan-and-negative": [np.nan, -2.0],
    "negative-and-nan": [-2.0, np.nan],
    "inf-and-negative": [-2.0, np.inf],
    "negative-zero": [-0.0],
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=seeds, n=st.integers(2, 50))
def test_weight_check_gives_the_two_pass_message(case, dtype, seed, n):
    values = BAD_VALUES[case]
    if np.issubdtype(dtype, np.integer) and not all(np.isfinite(values)):
        return  # integer weights hold no nan or infinity
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.standard_normal((n, 1)), y=np.arange(n) % 2)
    w = rng.uniform(0.5, 2.0, n).astype(dtype)
    w[rng.choice(n, size=len(values), replace=False)] = values
    message = weight_check_message(w)
    for call in (lambda: fit_mle(data, w), lambda: log_likelihood(data, w, Coefficients(0.0, [0.0]))):
        if message is None:
            try:
                call()
            except RareLogitError:
                pass  # the weights passed the check
        else:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


def test_drawn_datasets_equal_checked_ones():
    drawn = [
        generate_marginal(500, Coefficients(-2.0, [1.0, -0.5]), GaussianLaw.standard(2), substream(3, 1)),
        generate_conditional(500, 0.2, 1.0, 0.0, 1.0, substream(3, 2))[0],
    ]
    for data in drawn:
        checked = Dataset(x=data.x, y=data.y)
        for name in ("x", "y", "zt", "_cases"):
            got, want = getattr(data, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.flags.c_contiguous == want.flags.c_contiguous
            assert_array_equal(got, want)
        assert (data.n1, data.n0) == (checked.n1, checked.n0)
        assert type(data.n1) is int and type(data.n0) is int


# ----------------------------------------------------------------------------
# A Dataset holds its covariates once, as the z' = [1; x'] every fit reads.
#
# Every way of making a dataset builds zt in C order and finds the case rows
# then; x is a view of zt, so nothing is built later and the caller's arrays
# are not kept.  The plug-in covariance reads x in C-ordered row blocks, so
# its bits do not depend on that view's layout.
# ----------------------------------------------------------------------------

def covariates(order="C", dtype=np.float64, n=300, d=3):
    x = substream(5).standard_normal((n, d)) * 3
    return np.asarray(x.astype(dtype), order=order)


def labels(dtype, n=300):
    return (substream(6).random(n) < 0.2).astype(dtype)


def constructed():
    for order, dtype in (("C", np.float64), ("F", np.float64), ("C", np.int64)):
        for label_dtype in (np.int64, np.float64, bool):
            yield f"{order}-{np.dtype(dtype).name}-x, {np.dtype(label_dtype).name} y", \
                Dataset(x=covariates(order, dtype), y=labels(label_dtype))


def made(tmp_path):
    yield from constructed()
    yield "generate_marginal", generate_marginal(
        400, Coefficients(-2.0, [1.0, -0.5, 0.25]), GaussianLaw.standard(3), substream(7)
    )
    yield "generate_conditional", generate_conditional(400, 0.2, 1.0, 0.0, 1.0, substream(8))[0]
    parent = Dataset(x=covariates(), y=labels(np.int64))
    yield "take", parent.take(substream(9).integers(0, parent.n, 500))
    path = tmp_path / "data.csv"
    save_dataset(str(path), parent)
    yield "load_dataset", load_dataset(str(path))


def test_every_way_of_making_a_dataset_holds_one_covariate_array(tmp_path):
    for name, data in made(tmp_path):
        assert np.shares_memory(data.x, data.zt), name
        assert data.zt.flags.c_contiguous and data.zt.dtype == np.float64, name
        assert data.zt.shape == (data.d + 1, data.n), name
        assert_array_equal(data.zt[0], np.ones(data.n))
        assert_array_equal(data._cases, np.flatnonzero(data.y))
        assert data.y.dtype == np.int64, name
        assert (data.n1, data.n0) == (int(data.y.sum()), int(data.n - data.y.sum())), name
        for clone in (pickle.loads(pickle.dumps(data)), copy.deepcopy(data)):
            assert np.shares_memory(clone.x, clone.zt), name
            assert_array_equal(clone.zt, data.zt)


@pytest.mark.parametrize("order", ["C", "F"])
def test_writing_to_the_callers_arrays_changes_nothing(order):
    x, y = covariates(order), labels(np.int64)
    data = Dataset(x=x, y=y)
    zt, cases = data.zt.copy(), data._cases.copy()
    x[0, 0] = 99.0
    y[:] = 1 - y
    assert_array_equal(data.zt, zt)
    assert_array_equal(data.x, covariates())
    assert_array_equal(data.y, labels(np.int64))
    assert_array_equal(data._cases, cases)


def test_the_plug_in_reads_the_view_as_its_c_ordered_copy():
    data = Dataset(x=covariates(n=20_000), y=labels(np.int64, 20_000))
    beta = np.array([0.3, -0.2, 0.1])
    got = covariance(EstimatorFamily.OVER_BIAS_CORRECTED, data.x, beta, c_o=0.1, lam=2.0).v
    want = covariance(EstimatorFamily.OVER_BIAS_CORRECTED, np.ascontiguousarray(data.x), beta, c_o=0.1, lam=2.0).v
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------------
# FitResult.evaluations counts every kernel evaluation of a fit.
# ----------------------------------------------------------------------------

@pytest.fixture()
def counted_passes(monkeypatch):
    """A list that grows by the method's name on every kernel pass over the rows."""
    calls = []
    for name in ("evaluate", "derivatives"):

        def counting(self, theta_vec, name=name, method=getattr(model._Kernel, name)):
            calls.append(name)
            return method(self, theta_vec)

        monkeypatch.setattr(model._Kernel, name, counting)
    return calls


def problem():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 1))
    y = (rng.random(200) < 0.3).astype(int)
    return Dataset(x=x, y=y)


def test_full_steps_cost_one_evaluation_each(counted_passes):
    # from the log-odds start every Newton step is taken whole
    fit = fit_mle(problem(), np.ones(200))
    assert fit.converged and fit.iterations >= 2
    assert fit.evaluations == fit.iterations + 1 == len(counted_passes)


def test_halved_steps_add_evaluations(counted_passes):
    # from far off the first full Newton steps overshoot and are halved
    fit = fit_mle(problem(), np.ones(200), init=Coefficients(10.0, [0.0]))
    assert fit.converged
    assert fit.evaluations > fit.iterations + 1
    assert fit.evaluations == len(counted_passes)


@pytest.mark.parametrize("between", ["other-dataset", "subset", "one-weight"])
def test_a_start_at_the_optimum_of_another_problem_costs_one_evaluation(counted_passes, between):
    data = problem()
    cold = fit_mle(data, np.ones(200))
    target, w = data, np.ones(200)
    if between == "other-dataset":
        # the same rows in another Dataset: another zt object
        target = Dataset(x=data.x.copy(), y=data.y.copy())
    elif between == "subset":
        # a take() subset shares the buffer and rewrites its weights
        model.log_likelihood(data.take(np.arange(150)), np.ones(150), cold.theta)
    else:
        w[7] = 1.0 - 2.0**-52
    calls = len(counted_passes)
    warm = fit_mle(target, w, init=cold.theta)
    assert warm.converged
    assert (warm.iterations, warm.evaluations, len(counted_passes)) == (0, 1, calls + 1)
    fresh = fit_mle(Dataset(x=data.x.copy(), y=data.y.copy()), w, init=cold.theta)
    assert warm.neg_hessian.tobytes() == fresh.neg_hessian.tobytes()


def test_no_improving_step_stops_the_fit_unconverged(monkeypatch, counted_passes):
    # a descent direction: every halving lowers the concave objective
    solve = model._solve_newton
    monkeypatch.setattr(model, "_solve_newton", lambda neg_hess, grad: -solve(neg_hess, grad))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 2))
    y = (rng.random(2000) < 1.0 / (1.0 + np.exp(2.0 - x @ [1.0, -0.5]))).astype(int)
    fit = fit_mle(Dataset(x=x, y=y), np.ones(2000))
    assert not fit.converged and fit.grad_max_norm > 1e-8
    assert fit.stop_reason == "stalled"
    # the start, then the full step and its 30 halvings, all rejected
    assert (fit.iterations, fit.evaluations, len(counted_passes)) == (0, 32, 32)
    log_odds = np.log(np.sum(np.ones(2000), where=y == 1)) - np.log(np.sum(np.ones(2000), where=y == 0))
    assert fit.theta.as_vector().tobytes() == np.array([log_odds, 0.0, 0.0]).tobytes()


# ----------------------------------------------------------------------------
# Property tests of the line search's two acceptance rules.
#
# A fit's first step, halved or not, is judged on the objective; every
# later candidate is evaluated without the objective and judged on its
# slope along the step taken (see model._newton).  These tests pin that the
# derivative-only pass gives evaluate()'s gradient and Hessian bit for bit,
# that the slope rule never accepts a step the objective rule rejects, and
# that fit_mle takes the steps of _oracles.newton_one_rule, a solver with
# those two rules built on the public sums, bit for bit: on small random
# problems, and with forced overshooting steps and descent directions, which
# are halved on derivative-only passes alone.
# ----------------------------------------------------------------------------

SOLVE = model._solve_newton


def stall_problem():
    """The problem of test_no_improving_step_stops_the_fit_unconverged: 2000 rows, d = 2."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 2))
    y = (rng.random(2000) < 1.0 / (1.0 + np.exp(2.0 - x @ [1.0, -0.5]))).astype(int)
    return Dataset(x=x, y=y), np.ones(2000)


def check_derivatives_match_evaluate(data, w, theta):
    kernel = model._Kernel(data, w, w.max())
    first = kernel.derivatives(theta)
    _, grad, neg_hess = kernel.evaluate(theta)
    again = kernel.derivatives(theta)
    for got in (first, again):
        assert got[0].tobytes() == grad.tobytes()
        assert got[1].tobytes() == neg_hess.tobytes()


class TestDerivativePass:
    @PROPERTY
    @given(seed=seeds, n=st.integers(1, 40), d=dims, scale=st.sampled_from([0.1, 1.0, 30.0, 300.0]))
    def test_one_block_matches_evaluate_bit_for_bit(self, seed, n, d, scale):
        x, y, w = random_problem(seed, n, d)
        assume(w.max() > 0)
        theta = np.random.default_rng(seed + 1).normal(0.0, scale, d + 1)
        check_derivatives_match_evaluate(Dataset(x=x, y=y), w, theta)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1, model.BLOCK_ROWS + 17])
    def test_across_kernel_blocks(self, extra, d):
        x, y, w = random_problem(extra + 2, model.BLOCK_ROWS + extra, d)
        theta = np.random.default_rng(extra + 3).normal(0.0, 1.0, d + 1)
        check_derivatives_match_evaluate(Dataset(x=x, y=y), w, theta)


def check_rules_along_newton_steps(data, w, multiples, steps=8):
    """Walk the plain Newton iterates and judge multiples of each step by both rules.

    Returns how many candidates the gradient rule accepted; every one of
    them the objective rule accepts too.
    """
    kernel = model._Kernel(data, w, w.max())
    theta = model._log_odds_start(kernel.w, data.y, data.d)
    accepted = 0
    for _ in range(steps):
        obj, grad, neg_hess = kernel.evaluate(theta)
        try:
            step = SOLVE(neg_hess, grad)
        except RareLogitError:
            break
        for t in multiples:
            cand_obj, cand_grad, _ = kernel.evaluate(theta + t * step)
            if model._gradient_accepts(cand_grad, t * step):
                accepted += 1
                assert model._objective_accepts(cand_obj, obj), (theta, t)
        theta = theta + step
        if np.max(np.abs(theta)) > 30.0:
            break
    return accepted


# overshoots, the full step, halvings, and descent directions
MULTIPLES = (8.0, 4.0, 2.0, 1.5, 1.0, 0.5, 0.25, -0.5, -1.0)


class TestGradientRule:
    @PROPERTY
    @given(seed=seeds, n=st.integers(150, 400), d=st.integers(1, 2), alpha=st.floats(-3.5, 0.5))
    def test_accepts_only_what_the_objective_rule_accepts(self, seed, n, d, alpha):
        # the later iterates sit at the optimum, where both rules work at
        # the float resolution of the objective
        data, w = logistic_problem(seed, n, d, alpha)
        assume(data.n1 >= 5 and data.n0 >= 5)
        assert check_rules_along_newton_steps(data, w, MULTIPLES) > 0

    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 60), d=dims)
    def test_on_arbitrary_labels_and_weights(self, seed, n, d):
        x, y, w = random_problem(seed, n, d)
        assume(w @ y > 0 and w @ (1 - y) > 0)
        check_rules_along_newton_steps(Dataset(x=x, y=y), w, MULTIPLES)

    def test_rejects_the_stall_tests_descent_direction(self):
        data, w = stall_problem()
        kernel = model._Kernel(data, w, 1.0)
        theta = model._log_odds_start(kernel.w, data.y, data.d)
        obj, grad, neg_hess = kernel.evaluate(theta)
        descent = -SOLVE(neg_hess, grad)
        for k in range(model.MAX_HALVINGS + 1):
            cand_obj, cand_grad, _ = kernel.evaluate(theta + 0.5**k * descent)
            assert not model._objective_accepts(cand_obj, obj)
            assert not model._gradient_accepts(cand_grad, 0.5**k * descent)
        assert check_rules_along_newton_steps(data, w, MULTIPLES) > 0


def solve_after(normal, factor):
    """A Newton solve that multiplies every step after the first normal ones by factor."""
    calls = itertools.count()
    return lambda neg_hess, grad: SOLVE(neg_hess, grad) * (1.0 if next(calls) < normal else factor)


def log_odds_start(data, w):
    """fit_mle's start on the positively weighted rows, with the weights rescaled by their maximum."""
    keep = w > 0
    return model._log_odds_start(w[keep] / w[keep].max(), data.y[keep], data.d)


def assert_takes_the_oracles_steps(fit, expected):
    assert fit.theta.as_vector().tobytes() == expected[0].tobytes()
    assert (fit.iterations, fit.stop_reason) == expected[1:]


class TestOneRulePerStep:
    """fit_mle takes the oracle's steps from its log-odds start, with no forced steps.

    These problems lie below PILOT_MIN_ROWS, so no pilot runs.
    """

    @PROPERTY
    @given(seed=seeds, n=st.integers(150, 400), d=st.integers(1, 2), alpha=st.floats(-3.5, 0.5))
    def test_logistic_problems(self, seed, n, d, alpha):
        data, w = logistic_problem(seed, n, d, alpha)
        assume(data.n1 >= 5 and data.n0 >= 5)
        self.check(data, w)

    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 60), d=dims)
    def test_arbitrary_labels_and_weights(self, seed, n, d):
        x, y, w = random_problem(seed, n, d)
        assume(w @ y > 0 and w @ (1 - y) > 0)
        self.check(Dataset(x=x, y=y), w)

    @staticmethod
    def check(data, w):
        assert data.n < model.PILOT_MIN_ROWS
        try:
            fit = fit_mle(data, w)
        except RareLogitError as err:
            with pytest.raises(type(err)):
                newton_one_rule(data, w, log_odds_start(data, w), SOLVE)
            return
        assert_takes_the_oracles_steps(fit, newton_one_rule(data, w, log_odds_start(data, w), SOLVE))


class TestForcedSteps:
    """No sweep makes a later step overshoot, so these force it.

    A step three times the Newton step, after one or two normal steps, is
    halved until the slope along it at the candidate is not negative: to
    three quarters of the Newton step where the objective is close to
    quadratic, where the objective rule took one and a half.  A descent
    direction fails the slope rule at every halving and stalls.  Both are
    judged on derivative-only passes alone.
    """

    @pytest.mark.parametrize("normal", [1, 2])
    @PROPERTY
    @given(seed=seeds, n=st.integers(150, 400), d=st.integers(1, 2), alpha=st.floats(-3.5, 0.5))
    def test_an_overshooting_step_matches_the_oracle(self, normal, seed, n, d, alpha):
        data, w = logistic_problem(seed, n, d, alpha)
        assume(data.n1 >= 5 and data.n0 >= 5)
        try:
            self.check(data, w, 3.0, normal)
        except RareLogitError:
            assume(False)

    @pytest.mark.parametrize("normal", [1, 2])
    def test_a_descent_direction_stalls(self, normal):
        data, w = stall_problem()
        fit = self.check(data, w, -1.0, normal)
        assert (fit.stop_reason, fit.iterations) == ("stalled", normal)

    @staticmethod
    def check(data, w, factor, normal):
        passes = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("evaluate", "derivatives"):

                def counting(self, theta, name=name, method=getattr(model._Kernel, name)):
                    passes.append(name)
                    return method(self, theta)

                patch.setattr(model._Kernel, name, counting)
            patch.setattr(model, "_solve_newton", solve_after(normal, factor))
            fit = fit_mle(data, w)
        expected = newton_one_rule(data, w, log_odds_start(data, w), solve_after(normal, factor))
        assert_takes_the_oracles_steps(fit, expected)
        # the start and the first step's candidates read the objective, and
        # no later candidate does
        first = passes.index("derivatives")
        assert first >= 2
        assert passes == ["evaluate"] * first + ["derivatives"] * (len(passes) - first)
        assert fit.evaluations == len(passes)
        return fit


# ----------------------------------------------------------------------------
# The pilot start of cold rare-events fits (see fit_mle).
#
# A cold fit of at least PILOT_MIN_ROWS active rows whose control weight is
# at least PILOT_MIN_RATIO times its case weight starts from a fit on every
# case and every PILOT_STRIDE-th control, with the intercept moved back by
# the log of the control weight the pilot kept.  These tests pin that the
# pilot changes where such a fit starts but not where it ends, that a
# failed pilot leaves no trace, which fits take it, and that it keeps the
# fit exactly invariant under power-of-two weight scaling.
# ----------------------------------------------------------------------------

def rare_marginal(seed, n=100_000, alpha=-6.0):
    """The acceptance sweeps' design: x ~ N(0, 1), theta = (alpha, 1)."""
    return generate_marginal(n, Coefficients(alpha, [1.0]), GaussianLaw.standard(1), substream(seed))


def log_odds_init(data, w):
    """fit_mle's own log-odds start, as an explicit init."""
    w = w / w.max()
    alpha = np.log(np.sum(w, where=data.y == 1)) - np.log(np.sum(w, where=data.y == 0))
    return Coefficients(alpha, np.zeros(data.d))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pilot_start_reaches_the_log_odds_optimum_in_fewer_steps(seed):
    data = rare_marginal(seed)
    w = np.ones(data.n)
    piloted = fit_mle(data, w)
    cold = fit_mle(data, w, init=log_odds_init(data, w))
    assert piloted.converged and cold.converged
    assert piloted.pilot_iterations > 0 and cold.pilot_iterations == 0
    assert piloted.iterations < cold.iterations
    a, b = piloted.theta.as_vector(), cold.theta.as_vector()
    assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b))


def test_separated_pilot_falls_back_to_the_log_odds_start():
    # the cases lie at x in [0.5, 1.5] and so do many controls, but the
    # controls the pilot keeps (every PILOT_STRIDE-th) all lie at x <= -0.5
    n1, n0 = 1_000, 59_000
    assert n1 + n0 >= model.PILOT_MIN_ROWS and n0 >= model.PILOT_MIN_RATIO * n1
    rng = np.random.default_rng(5)
    y = np.zeros(n1 + n0, dtype=np.int64)
    y[rng.choice(n1 + n0, n1, replace=False)] = 1
    x = np.empty(n1 + n0)
    x[y == 1] = rng.uniform(0.5, 1.5, n1)
    kept = np.arange(n0) % model.PILOT_STRIDE == 0
    controls = rng.normal(0.0, 1.0, n0)
    controls[kept] = -rng.uniform(0.5, 1.5, kept.sum())
    x[y == 0] = controls
    data = Dataset(x=x[:, None], y=y)
    w = np.ones(data.n)

    pilot_rows = np.sort(np.r_[np.flatnonzero(y == 1), np.flatnonzero(y == 0)[kept]])
    with pytest.raises(RareLogitError):
        fit_mle(data.take(pilot_rows), np.ones(pilot_rows.size))
    fit = fit_mle(data, w)
    assert fit.converged and fit.pilot_iterations == 0
    assert fingerprint(fit) == fingerprint(fit_mle(data, w, init=log_odds_init(data, w)))


def test_singular_pilot_falls_back_and_the_full_fit_converges():
    # x2 is +-1 on 400 controls the pilot leaves out and 0 elsewhere, so the
    # full data identify its slope but the pilot's x2 column is all zero
    n = 100_000
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x1 - 6.0)))).astype(np.int64)
    controls = np.flatnonzero(y == 0)
    left_out = controls[np.arange(controls.size) % model.PILOT_STRIDE != 0]
    marked = rng.choice(left_out, 400, replace=False)
    x2 = np.zeros(n)
    x2[marked[:200]], x2[marked[200:]] = 1.0, -1.0
    data = Dataset(x=np.column_stack([x1, x2]), y=y)
    w = np.ones(n)
    assert n >= model.PILOT_MIN_ROWS and data.n0 >= model.PILOT_MIN_RATIO * data.n1

    fit = fit_mle(data, w)
    assert fit.converged and fit.pilot_iterations == 0
    assert fingerprint(fit) == fingerprint(fit_mle(data, w, init=log_odds_init(data, w)))
    # want is this optimum as reached from another start, the pilot
    # estimate moved to the full data with x2's slope left at zero.  Each
    # converged estimate lies within twice ||H^-1||_inf tol of the optimum
    # (see slack() in tests/test_equivalences.py), plus a few ulps.
    want = np.array([-6.1609432793725825, 1.1425019716136415, 0.06475152357278081])
    slack = 2.0 * np.abs(np.linalg.inv(fit.neg_hessian)).sum(axis=1).max() * SolverSettings().tol
    bound = 2.0 * slack + 4 * np.finfo(float).eps * np.abs(want).max()
    assert np.abs(fit.theta.as_vector() - want).max() <= bound


@functools.cache
def outside_the_rule():
    """Fits that keep the log-odds start, each beside the rule it misses."""
    short = rare_marginal(7, n=model.PILOT_MIN_ROWS - 1)
    zeroed = rare_marginal(8, n=model.PILOT_MIN_ROWS + 10_000)
    w_zeroed = np.ones(zeroed.n)
    w_zeroed[np.flatnonzero(zeroed.y == 0)[:10_001]] = 0.0  # one row too few stay active
    common = rare_marginal(9, alpha=-2.0)  # about one case per 7 controls
    boosted = rare_marginal(10)
    w_boosted = np.where(boosted.y == 1, boosted.n0 / (model.PILOT_MIN_RATIO * boosted.n1) * 1.01, 1.0)
    return {
        "rows": (short, np.ones(short.n)),
        "active-rows": (zeroed, w_zeroed),
        "ratio": (common, np.ones(common.n)),
        "weighted-ratio": (boosted, w_boosted),
    }


@pytest.mark.parametrize("case", ["rows", "active-rows", "ratio", "weighted-ratio"])
def test_fits_outside_the_rule_keep_the_log_odds_start(case):
    data, w = outside_the_rule()[case]
    fit = fit_mle(data, w)
    assert fit.converged and fit.pilot_iterations == 0
    assert fingerprint(fit) == fingerprint(fit_mle(data, w, init=log_odds_init(data, w)))


def test_pilot_short_of_tol_falls_back_to_the_log_odds_start():
    # two steps take neither the pilot nor the full fit from a cold start to tol
    data = rare_marginal(14, n=model.PILOT_MIN_ROWS)
    w = np.ones(data.n)
    settings = SolverSettings(max_iter=2)
    fit = fit_mle(data, w, settings=settings)
    assert fit.pilot_iterations == 0 and fit.stop_reason == "max_iter"
    assert fingerprint(fit) == fingerprint(fit_mle(data, w, init=log_odds_init(data, w), settings=settings))


def test_a_given_start_takes_no_pilot():
    data = rare_marginal(11)
    fit = fit_mle(data, np.ones(data.n), init=Coefficients(-5.0, [0.5]))
    assert fit.converged and fit.pilot_iterations == 0


@pytest.mark.parametrize("power", [-40, -1, 3, 40])
def test_power_of_two_weight_scaling_is_bit_identical_with_a_pilot(power):
    # k * w / max(k * w) == w / max(w), and the pilot's weight sums scale
    # exactly too, when k is a power of two
    data = rare_marginal(12, n=model.PILOT_MIN_ROWS + 5_000)
    w = np.random.default_rng(13).uniform(0.25, 4.0, data.n)
    base = fit_mle(data, w)
    assert base.pilot_iterations > 0
    assert fingerprint(fit_mle(data, 2.0**power * w)) == fingerprint(base)

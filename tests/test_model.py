import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rarelogit
from rarelogit import (
    AllOneClassError,
    Coefficients,
    Dataset,
    EstimatorFamily,
    EstimatorKind,
    RareLogitError,
    SeparationError,
    SingularHessianError,
    SolverSettings,
    fit_estimator,
    fit_mle,
    gradient,
    hessian,
    log_likelihood,
    predict_prob,
    realize_design,
    substream,
)

from _oracles import fd_gradient, fd_jacobian, grid_max_loglik, loglik_direct


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

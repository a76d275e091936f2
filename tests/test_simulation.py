"""Tests of rarelogit.simulation: the data generators, intercept calibration
and the replication harness, with its one full-data problem per replication
and its anchored starts.

Each section after the first opens with a comment that says what it pins.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import expit

import rarelogit
import rarelogit as rl
from rarelogit import (
    AllReplicationsFailedError,
    CalibrationError,
    Coefficients,
    ConditionalGaussianDesign,
    EstimatorFamily,
    EstimatorKind,
    ExperimentConfig,
    GaussianLaw,
    MarginalLogisticDesign,
    RareLogitError,
    SolverSettings,
    calibrate_intercept,
    emse,
    fit_estimator,
    full_mle,
    generate_conditional,
    generate_marginal,
    oversample,
    run_experiment,
    simulation,
    substream,
    undersample,
)
from rarelogit import EstimatorFamily as F
from rarelogit import EstimatorKind as K

from _oracles import replication_direct
from test_table_properties import rare_problem


FULL = EstimatorKind(EstimatorFamily.FULL)
SMALL_CONFIG = dict(design=ConditionalGaussianDesign(1.0, 0.0, 1.0, 0.1), n=100, reps=1, estimators=(FULL,), base_seed=0)


def event_rate_by_quadrature(alpha, beta, mean=0.0, sd=1.0):
    """Independent check of E_x expit(alpha + beta x) for x ~ N(mean, sd^2)."""
    def integrand(t):
        return expit(alpha + beta * t) * np.exp(-0.5 * ((t - mean) / sd) ** 2) / (
            sd * np.sqrt(2 * np.pi)
        )

    value, _ = quad(integrand, mean - 16 * sd, mean + 16 * sd, limit=300)
    return value


def rare_event_rate(alpha, mean, var):
    """E expit(alpha + t) for t ~ N(mean, var), by its series in q = e^(alpha + t).

    expit(u) = q - q^2 + q^3 - q^4 / (1 + q) and E q^k = exp(k (alpha + mean)
    + k^2 var / 2), so the error of the three-term sum is at most E q^4,
    negligible against the sum when that is rare.
    """
    return sum(
        (-1) ** (k + 1) * math.exp(k * (alpha + mean) + k * k * var / 2) for k in (1, 2, 3)
    )


class TestGenerateConditional:
    def test_induced_coefficients_closed_form(self):
        _, theta = generate_conditional(10, 0.02, 1.0, 0.0, 1.0, substream(0))
        assert theta.alpha == pytest.approx(math.log(0.02 / 0.98) - 0.5, rel=1e-14)
        assert theta.beta[0] == 1.0

    def test_symmetric_uninformative(self):
        _, theta = generate_conditional(10, 0.5, 0.7, 0.7, 2.0, substream(1))
        assert theta.alpha == 0.0
        assert theta.beta[0] == 0.0

    def test_intercept_regression_values(self):
        # the induced intercepts for the four documented rates
        rates = [0.02, 0.004, 0.0008, 0.00016]
        expected = [-4.39, -6.02, -7.63, -9.24]
        for rate, want in zip(rates, expected):
            _, theta = generate_conditional(10, rate, 1.0, 0.0, 1.0, substream(2))
            assert round(theta.alpha, 2) == want

    def test_label_and_covariate_law(self):
        n = 200_000
        data, _ = generate_conditional(n, 0.3, 1.0, 0.0, 1.0, substream(3))
        assert abs(data.n1 / n - 0.3) < 4 * math.sqrt(0.3 * 0.7 / n)
        cases = data.x[data.y == 1, 0]
        controls = data.x[data.y == 0, 0]
        assert cases.mean() == pytest.approx(1.0, abs=4 / math.sqrt(cases.size))
        assert controls.mean() == pytest.approx(0.0, abs=4 / math.sqrt(controls.size))

    def test_fits_recover_induced_coefficients(self):
        # conditional/marginal consistency: the full MLE centers on the
        # induced coefficients across replications
        errs = []
        for s in range(30):
            data, theta_t = generate_conditional(4000, 0.1, 1.0, 0.0, 1.0, substream(4, s))
            fit = full_mle(data)
            errs.append(fit.theta.as_vector() - theta_t.as_vector())
        errs = np.stack(errs)
        mean = errs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / math.sqrt(len(errs))
        assert np.all(np.abs(mean) <= 4 * se + 1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_conditional(10, 0.0, 1.0, 0.0, 1.0, substream(0))
        with pytest.raises(ValueError):
            generate_conditional(10, 0.1, 1.0, 0.0, 0.0, substream(0))

    @pytest.mark.parametrize(
        "params, message",
        [
            # sigma^2 underflows to 0: the slope would divide by zero
            ({"sigma": 1e-200}, "mu1=1, mu0=0, sigma=1e-200 induce logistic coefficients"),
            ({"sigma": 1e200}, "sigma=1e[+]200 induce logistic coefficients that are not finite"),
            ({"mu1": 1e200}, "mu1=1e[+]200, mu0=0, sigma=1 induce logistic coefficients"),
            # mu1 - mu0 overflows to inf without an exception
            ({"mu1": 1e308, "mu0": -1e308}, "induce logistic coefficients that are not finite"),
            ({"sigma": math.inf}, "sigma must be positive and finite"),
            ({"sigma": math.nan}, "sigma must be positive and finite"),
            ({"mu1": math.nan}, "means must be finite"),
        ],
        ids=["tiny-sigma", "huge-sigma", "huge-mu1", "huge-mean-gap", "inf-sigma", "nan-sigma", "nan-mu1"],
    )
    def test_nonfinite_induced_coefficients_rejected(self, params, message):
        kwargs = {"mu1": 1.0, "mu0": 0.0, "sigma": 1.0, "target_rate": 0.05} | params
        with pytest.raises(ValueError, match=message):
            ConditionalGaussianDesign(**kwargs)


class TestCovariateLaw:
    @pytest.mark.parametrize(
        "means, sds, message",
        [
            ((0.0,), (1e308,), "sd 1e[+]308 with mean 0 lets a covariate draw overflow"),
            ((0.0, 1.7e308), (1.0, 1e307), "sd 1e[+]307 with mean 1.7e[+]308 lets"),
        ],
        ids=["huge-sd", "huge-mean-and-sd"],
    )
    def test_overflowing_draws_rejected(self, means, sds, message):
        with pytest.raises(ValueError, match=message):
            GaussianLaw(means=means, sds=sds)

    def test_law_within_the_bound_draws_finite(self):
        law = GaussianLaw(means=(-1e300,), sds=(1e307,))
        assert np.all(np.isfinite(law.sample(10_000, substream(4))))

    @pytest.mark.parametrize(
        "theta, law",
        [
            (Coefficients(-2.0, [1e300]), GaussianLaw(means=(0.0,), sds=(1e10,))),
            (Coefficients(-2.0, [1.0, 1e300]), GaussianLaw(means=(0.0, 1e10), sds=(1.0, 1.0))),
            (Coefficients(1e308, [1e308]), GaussianLaw.standard(1)),
        ],
        ids=["slope-times-sd", "slope-times-mean", "intercept-plus-slope"],
    )
    def test_overflowing_linear_predictor_rejected(self, theta, law):
        with pytest.raises(ValueError, match="let alpha [+] beta'x overflow"):
            MarginalLogisticDesign(theta=theta, law=law)
        with pytest.raises(ValueError, match="let alpha [+] beta'x overflow"):
            generate_marginal(10, theta, law, substream(0))


class TestGenerateMarginal:
    def test_case_count_near_expectation(self):
        theta = Coefficients(-6.0, [1.0])
        law = GaussianLaw.standard(1)
        expected = 1e5 * 0.004042647427614932  # quadrature value of E p
        for s in range(3):
            data = generate_marginal(100_000, theta, law, substream(5, s))
            assert abs(data.n1 - expected) <= 4 * math.sqrt(expected)

    def test_fair_coin_when_theta_zero(self):
        data = generate_marginal(50_000, Coefficients(0.0, [0.0]), GaussianLaw.standard(1), substream(6))
        assert abs(data.n1 / data.n - 0.5) < 0.01

    def test_zero_slope_rate(self):
        theta = Coefficients(-6.0, [0.0])
        data = generate_marginal(400_000, theta, GaussianLaw.standard(1), substream(7))
        p = expit(-6.0)
        assert abs(data.n1 / data.n - p) < 4 * math.sqrt(p * (1 - p) / data.n)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            generate_marginal(10, Coefficients(0.0, [1.0, 2.0]), GaussianLaw.standard(1), substream(0))


class TestCalibrateIntercept:
    @pytest.mark.parametrize("beta", [0.0, 1e-200, -1e-170])
    def test_zero_slope_closed_form(self, beta):
        # the square of a slope below about 1.6e-162 underflows to a zero sd
        law = GaussianLaw.standard(1)
        alpha = calibrate_intercept([beta], law, 0.02)
        assert alpha == math.log(0.02 / 0.98)

    def test_round_trip_grid(self):
        law = GaussianLaw.standard(1)
        for beta, rate in [(1.0, 0.004), (1.0, 0.02), (-0.5, 0.1), (2.0, 0.001)]:
            alpha = calibrate_intercept([beta], law, rate, precision=1e-9)
            assert event_rate_by_quadrature(alpha, beta) == pytest.approx(rate, abs=2e-9)

    def test_recovers_minus_six(self):
        # rate chosen as E p at alpha = -6: calibration inverts it
        law = GaussianLaw.standard(1)
        alpha = calibrate_intercept([1.0], law, 0.004042647427614932, precision=1e-10)
        assert alpha == pytest.approx(-6.0, abs=0.02)

    def test_rare_event_approximation(self):
        # for small rates alpha ~ log(rate) - log E e^x = log(rate) - 1/2;
        # the neglected second-order term is ~ e^alpha E e^{2x} / E e^x,
        # about 0.057 at this rate, which bounds the gap
        law = GaussianLaw.standard(1)
        alpha = calibrate_intercept([1.0], law, 0.02, precision=1e-9)
        assert alpha == pytest.approx(math.log(0.02) - 0.5, abs=0.06)

    def test_no_bracket(self):
        with pytest.raises(CalibrationError):
            calibrate_intercept([1.0], GaussianLaw.standard(1), 1e-30)

    @pytest.mark.parametrize(
        "beta, mean, message",
        [
            (math.inf, 0.0, "beta must be finite"),
            (-math.inf, 0.0, "beta must be finite"),
            (math.nan, 0.0, "beta must be finite"),
            (1e200, 0.0, "beta'x has mean 0 and sd inf"),
            (1e308, 0.0, "beta'x has mean 0 and sd inf"),
            (1e150, 1e300, "beta'x has mean inf and sd 1e+150"),
        ],
    )
    def test_slopes_that_cannot_be_integrated_are_rejected_without_a_warning(self, beta, mean, message):
        law = GaussianLaw(means=(mean,), sds=(1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                calibrate_intercept([beta], law, 0.02)

    @pytest.mark.parametrize("rate", [1e-6, 1e-8, 1e-12])
    def test_precision_is_relative_to_the_rate(self, rate):
        # the achieved rate is within precision * rate of the target, however rare
        alpha = calibrate_intercept([1.0], GaussianLaw.standard(1), rate)
        assert abs(rare_event_rate(alpha, 0.0, 1.0) - rate) <= 2e-8 * rate

    def test_quadrature_for_any_dimension(self):
        # beta'x ~ N(1*0 - 0.5*0.5, 1^2 + 0.5^2 * 2^2) exactly, so no rng is needed
        law = GaussianLaw(means=(0.0, 0.5), sds=(1.0, 2.0))
        alpha = calibrate_intercept([1.0, -0.5], law, 1e-6)
        assert abs(rare_event_rate(alpha, -0.25, 2.0) - 1e-6) <= 2e-8 * 1e-6


class TestEmse:
    def test_exact_recovery_gives_zero(self):
        theta = Coefficients(1.0, [2.0])
        total, comps = emse([theta, theta], theta)
        assert total == 0.0
        assert_array_equal(comps, [0.0, 0.0])

    def test_single_offset(self):
        theta = Coefficients(0.0, [0.0])
        total, comps = emse([Coefficients(1.0, [0.0])], theta)
        assert total == 1.0
        assert_array_equal(comps, [1.0, 0.0])

    def test_symmetric_offsets(self):
        theta = Coefficients(0.0, [0.0])
        ests = [Coefficients(0.0, [1.0]), Coefficients(0.0, [-1.0])]
        total, comps = emse(ests, theta)
        assert total == 1.0
        assert_array_equal(comps, [0.0, 1.0])

    def test_decomposition_identity(self):
        rng = substream(9)
        theta = Coefficients(-1.0, [0.5, 2.0])
        ests = [
            Coefficients(rng.normal(), rng.normal(size=2)) for _ in range(17)
        ]
        total, comps = emse(ests, theta)
        assert total == comps[0] + comps[1:].sum()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emse([], Coefficients(0.0, [0.0]))

    @pytest.mark.parametrize(
        "estimates, theta",
        [
            ([Coefficients(0.0, [0.0])], Coefficients(0.0, [1e200])),
            ([Coefficients(1e308, [0.0])], Coefficients(-1e308, [0.0])),
            # each squared error is finite; their sum over components is not
            ([Coefficients(1.3e154, [1.3e154])], Coefficients(0.0, [0.0])),
        ],
        ids=["square", "difference", "total"],
    )
    def test_overflowing_error_raises(self, estimates, theta):
        # it used to return inf with a numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="squared estimation error is not finite"):
                emse(estimates, theta)


class TestRunExperiment:
    def small_config(self, reps=6, estimators=(FULL,), seed=99):
        return ExperimentConfig(
            design=ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=0.2),
            n=600,
            reps=reps,
            estimators=estimators,
            base_seed=seed,
        )

    def test_single_replication_identity(self):
        config = self.small_config(reps=1)
        report = run_experiment(config)
        # recompute the single replication independently
        rng = substream(config.base_seed, 1)
        data, theta_t = generate_conditional(600, 0.2, 1.0, 0.0, 1.0, rng)
        fit = full_mle(data)
        delta = fit.theta.as_vector() - theta_t.as_vector()
        entry = report.entries[0]
        assert entry.emse_alpha == delta[0] ** 2
        assert entry.emse_total == delta[0] ** 2 + delta[1] ** 2
        assert entry.error_mean == tuple(delta)
        # one success has no sample covariance; it is NaN without a RuntimeWarning
        assert np.isnan(entry.scaled_cov).all() and np.shape(entry.scaled_cov) == (2, 2)
        assert report.mean_n1 == data.n1

        # the marginal design: replication 1 draws on substream (seed, 1)
        design = MarginalLogisticDesign(
            theta=Coefficients(-1.5, [1.0]), law=GaussianLaw.standard(1)
        )
        report = run_experiment(dataclasses.replace(config, design=design))
        data = design.draw(600, substream(config.base_seed, 1))
        theta_t = design.true_coefficients()
        delta = full_mle(data).theta.as_vector() - theta_t.as_vector()
        entry = report.entries[0]
        assert_array_equal(report.theta_t.as_vector(), [-1.5, 1.0])
        assert entry.emse_alpha == delta[0] ** 2
        assert entry.emse_total == delta[0] ** 2 + delta[1] ** 2
        assert report.mean_n1 == data.n1

    def test_deterministic(self):
        a = run_experiment(self.small_config())
        b = run_experiment(self.small_config())
        assert a.entries == b.entries
        assert a.mean_n1 == b.mean_n1

    # at 21 replications the chunks of max(1, 21 // 8) = 2 leave a last one short
    @pytest.mark.parametrize("reps", [8, 21])
    def test_threads_match_serial(self, reps):
        config = self.small_config(reps=reps)
        serial = run_experiment(config, threads=1)
        threaded = run_experiment(config, threads=2)
        assert serial.entries == threaded.entries
        assert serial.mean_n1 == threaded.mean_n1

    def test_pool_workers_run_one_blas_thread(self):
        # A process started with two OpenBLAS threads reports each loaded
        # library's thread count, and so does every pool worker in place of
        # its replication's n1; mean_n1 is then the workers' largest count.
        script = (
            "import numpy as np\n"
            "import rarelogit as rl\n"
            "from rarelogit import simulation\n"
            "def replication(config, s):\n"
            "    return simulation._blas_threads(), [np.zeros(2)]\n"
            "simulation._run_replication = replication\n"
            "config = rl.ExperimentConfig(\n"
            "    design=rl.ConditionalGaussianDesign(1.0, 0.0, 1.0, 0.2), n=600, reps=8,\n"
            "    estimators=(rl.EstimatorKind(rl.EstimatorFamily.FULL),), base_seed=1)\n"
            "print(simulation._blas_threads(), rl.run_experiment(config, threads=2).mean_n1)\n"
        )
        src = str(Path(rarelogit.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        main, workers = run.stdout.split()
        assert main == str(min(2, os.cpu_count() or 1))
        assert workers == "1.0"

    def test_shared_design_pairs_weighted_and_corrected(self):
        kinds = (
            FULL,
            EstimatorKind(EstimatorFamily.UNDER_WEIGHTED, 1.0),
            EstimatorKind(EstimatorFamily.UNDER_BIAS_CORRECTED, 1.0),
        )
        report = run_experiment(self.small_config(estimators=kinds))
        full_entry, w_entry, bc_entry = report.entries
        assert w_entry.emse_total == full_entry.emse_total
        assert bc_entry.emse_total == full_entry.emse_total

    def test_only_replications_with_designs_start_a_helper_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        run_experiment(self.small_config(reps=3))
        assert started == []
        # one helper per replication, however many designs it draws
        kinds = (FULL, *(EstimatorKind(EstimatorFamily.OVER_WEIGHTED, r) for r in (1.0, 3.0)))
        run_experiment(self.small_config(reps=3, estimators=kinds))
        assert len(started) == 3

    def test_design_draw_error_raises_where_its_fit_starts(self, monkeypatch):
        realize, fit = simulation.realize_design, simulation.fit_estimator
        fitted = []

        def failing_realize(kind, data, rng):
            if kind.rate == 0.5:
                raise ValueError("draw at 0.5 failed")
            return realize(kind, data, rng)

        def recording_fit(kind, *args, **kwargs):
            fitted.append(kind)
            return fit(kind, *args, **kwargs)

        monkeypatch.setattr(simulation, "realize_design", failing_realize)
        monkeypatch.setattr(simulation, "fit_estimator", recording_fit)
        U = EstimatorFamily.UNDER_WEIGHTED
        kinds = (FULL, EstimatorKind(U, 0.2), EstimatorKind(U, 0.5), EstimatorKind(U, 0.8))
        before = threading.active_count()
        with pytest.raises(ValueError, match="draw at 0.5 failed"):
            run_experiment(self.small_config(estimators=kinds))
        # the fits before the failed design ran, in order, and the helper was joined
        assert fitted == list(kinds[:2])
        assert threading.active_count() == before

    def test_failed_replications_counted(self):
        # tiny n at a rare rate: some replications draw zero cases
        config = ExperimentConfig(
            design=ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=0.02),
            n=40,
            reps=40,
            estimators=(FULL,),
            base_seed=123,
        )
        report = run_experiment(config)
        entry = report.entries[0]
        assert 0 < entry.failed < 40

        # recompute both error fields from the successes alone, each scaled by
        # its own replication's case count
        target = config.design.true_coefficients().as_vector()
        errors, scaled = [], []
        for s in range(1, 41):
            data = config.design.draw(40, substream(123, s))
            try:
                fit = full_mle(data)
            except RareLogitError:
                continue
            if fit.converged:
                errors.append(fit.theta.as_vector() - target)
                scaled.append(math.sqrt(data.n1) * errors[-1])
        assert len(errors) == 40 - entry.failed
        centred = np.array(scaled) - np.mean(scaled, axis=0)
        assert_allclose(entry.error_mean, np.sum(errors, axis=0) / len(errors), rtol=1e-12)
        assert_allclose(entry.scaled_cov, centred.T @ centred / (len(scaled) - 1), rtol=1e-12)

    def test_all_failed_raises(self):
        config = ExperimentConfig(
            design=ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=1e-6),
            n=30,
            reps=3,
            estimators=(FULL,),
            base_seed=7,
        )
        with pytest.raises(AllReplicationsFailedError):
            run_experiment(config)

    def test_nonconverged_fits_count_as_failed(self):
        config = self.small_config(reps=3)
        capped = dataclasses.replace(config, solver=SolverSettings(max_iter=1))
        with pytest.raises(AllReplicationsFailedError):
            run_experiment(capped)

    def test_nonconverged_count_matches_step_cap(self):
        theta = Coefficients(-1.0, [3.0])
        law = GaussianLaw.standard(1)
        config = ExperimentConfig(
            design=MarginalLogisticDesign(theta=theta, law=law),
            n=100,
            reps=8,
            estimators=(FULL,),
            base_seed=1,
        )
        steps = [
            full_mle(generate_marginal(100, theta, law, substream(1, s))).iterations
            for s in range(1, 9)
        ]
        # under a step cap, the replications that need more steps stop unconverged
        cap = min(steps)
        expected = sum(k > cap for k in steps)
        assert 0 < expected < len(steps)
        capped = dataclasses.replace(config, solver=SolverSettings(max_iter=cap))
        assert run_experiment(capped).entries[0].failed == expected

    def test_marginal_design_runs(self):
        config = ExperimentConfig(
            design=MarginalLogisticDesign(
                theta=Coefficients(-1.5, [1.0]), law=GaussianLaw.standard(1)
            ),
            n=500,
            reps=4,
            estimators=(FULL, EstimatorKind(EstimatorFamily.OVER_WEIGHTED, 1.0)),
            base_seed=55,
        )
        report = run_experiment(config)
        assert report.reps == 4
        assert len(report.entries) == 2
        assert all(e.failed == 0 for e in report.entries)

    def test_entry_of_a_kind_not_run_is_a_key_error(self):
        report = run_experiment(self.small_config(reps=1))
        with pytest.raises(KeyError, match="no entry for"):
            report.entry(EstimatorKind(EstimatorFamily.UNDER_WEIGHTED, 0.5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.small_config(reps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                design=ConditionalGaussianDesign(1.0, 0.0, 1.0, 0.6),
                n=100,
                reps=1,
                estimators=(FULL,),
                base_seed=0,
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                design=ConditionalGaussianDesign(1.0, 0.0, 1.0, 0.1),
                n=100,
                reps=1,
                estimators=(),
                base_seed=0,
            )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GaussianLaw(means=(0.0,), sds=(1.0, 1.0)), "means and sds must be equal-length, nonempty"),
        (lambda: GaussianLaw(means=(), sds=()), "means and sds must be equal-length, nonempty"),
        (lambda: generate_conditional(0, 0.1, 1.0, 0.0, 1.0, substream(0)), "n must be >= 1"),
        (
            lambda: generate_marginal(0, Coefficients(-2.0, [1.0]), GaussianLaw.standard(1), substream(0)),
            "n must be >= 1",
        ),
        (
            lambda: calibrate_intercept([1.0, 2.0], GaussianLaw.standard(1), 0.05),
            "beta and covariate law dimensions differ",
        ),
        (lambda: calibrate_intercept([1.0], GaussianLaw.standard(1), 1.0), "target_rate must be in [(]0, 1[)]"),
        (
            lambda: calibrate_intercept([1.0], GaussianLaw.standard(1), 0.05, precision=0.0),
            "precision must be positive",
        ),
        (
            lambda: emse([Coefficients(0.0, [1.0, 2.0])], Coefficients(0.0, [1.0])),
            "estimate and target dimensions differ",
        ),
        (
            lambda: ExperimentConfig(
                design=ConditionalGaussianDesign(1.0, 0.0, 1.0, 0.1), n=1, reps=1, estimators=(FULL,), base_seed=0
            ),
            "n must be >= 2",
        ),
        # at precision = inf every rate is close enough, so the first
        # midpoint, 0.0, came back whatever the target
        (
            lambda: calibrate_intercept([1.0], GaussianLaw.standard(1), 0.02, precision=math.inf),
            "precision must be positive and finite",
        ),
        (
            lambda: calibrate_intercept([1.0], GaussianLaw.standard(1), 0.02, precision=math.nan),
            "precision must be positive and finite",
        ),
        # a float seed used to run as its integer part, a float size to fail
        # inside run_experiment, and a negative seed at the first substream
        (lambda: ExperimentConfig(**{**SMALL_CONFIG, "base_seed": 1.7}), "base_seed must be an integer, got 1.7"),
        (lambda: ExperimentConfig(**{**SMALL_CONFIG, "base_seed": -1}), "base_seed must be >= 0, got -1"),
        (lambda: ExperimentConfig(**{**SMALL_CONFIG, "reps": 2.5}), "reps must be an integer, got 2.5"),
        (lambda: ExperimentConfig(**{**SMALL_CONFIG, "reps": True}), "reps must be an integer, got True"),
        (lambda: ExperimentConfig(**{**SMALL_CONFIG, "n": 1000.5}), "n must be an integer, got 1000.5"),
        # a float thread count or size used to raise a bare TypeError, and
        # threads=True to run one worker
        (lambda: run_experiment(ExperimentConfig(**SMALL_CONFIG), threads=2.5), "threads must be an integer, got 2.5"),
        (lambda: run_experiment(ExperimentConfig(**SMALL_CONFIG), threads=True), "threads must be an integer, got True"),
        (lambda: generate_conditional(2.5, 0.1, 1.0, 0.0, 1.0, substream(0)), "n must be an integer, got 2.5"),
        (
            lambda: generate_marginal(2.5, Coefficients(-2.0, [1.0]), GaussianLaw.standard(1), substream(0)),
            "n must be an integer, got 2.5",
        ),
    ],
    ids=[
        "law-lengths", "empty-law", "conditional-n", "marginal-n", "calibration-beta",
        "calibration-rate", "calibration-precision", "emse-dims", "config-n",
        "calibration-precision-inf", "calibration-precision-nan",
        "config-float-seed", "config-negative-seed", "config-float-reps", "config-bool-reps", "config-float-n",
        "float-threads", "bool-threads", "conditional-float-n", "marginal-float-n",
    ],
)
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_config_takes_numpy_integers():
    config = ExperimentConfig(**{**SMALL_CONFIG, "n": np.int64(100), "reps": np.int32(2), "base_seed": np.uint64(7)})
    assert (config.n, config.reps, config.base_seed) == (100, 2, 7)
    assert type(config.base_seed) is int


# ----------------------------------------------------------------------------
# One full-data problem per replication.
#
# At pi0 = 1 and lambda_n = 0 a design keeps every row once with weight 1
# and shifts the intercept by 0, so those kinds fit the full estimator's
# problem.  run_experiment draws no design for them and fits that problem
# until a fit of it converges; every later kind of it takes that estimate.
# These tests pin that the report equals the one of drawing every design
# and fitting every kind on its own (_oracles.replication_direct), and
# that the draws and fits it skips are not made.
# ----------------------------------------------------------------------------

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# full, four kinds at the identity rates, and eight drawn at four designs
KINDS = (
    K(F.FULL),
    *(K(family, rate) for family in (F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED) for rate in (0.3, 1.0)),
    *(K(family, rate) for family in (F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED) for rate in (0.0, 2.0)),
    *(K(family, 0.6) for family in (F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED)),
    *(K(family, 5.0) for family in (F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED)),
)
# at n = 3000, d = 2 a cold fit takes 5-6 Newton steps and an anchored one
# 2-3, so at 5 steps some fits before the anchor fail and the rest converge
SMALL_MAX_ITER = 5


def full_data(kind):
    return kind.design_kind is None or kind.rate == kind.design_kind.identity_rate


def config(seed, d, order, max_iter, reps=3):
    design = rl.MarginalLogisticDesign(
        theta=rl.Coefficients(-3.0, [1.0] * d), law=rl.GaussianLaw.standard(d)
    )
    return rl.ExperimentConfig(
        design=design,
        n=3000,
        reps=reps,
        estimators=tuple(KINDS[i] for i in order),
        base_seed=seed,
        solver=rl.SolverSettings(max_iter=max_iter),
    )


def outcome(config):
    """The report's fields as bytes, or the message of an all-failed estimator."""
    try:
        report = rl.run_experiment(config)
    except rl.AllReplicationsFailedError as err:
        return str(err)
    head = np.array([report.reps, report.mean_n1, *report.theta_t.as_vector()])
    return [head.tobytes()] + [
        (
            entry.kind,
            entry.failed,
            np.array(
                [entry.emse_total, entry.emse_alpha, *entry.emse_beta, *entry.error_mean,
                 *np.ravel(entry.scaled_cov)]
            ).tobytes(),
        )
        for entry in report.entries
    ]


@pytest.mark.parametrize(
    "family",
    [F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED, F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED],
)
def test_a_kind_at_its_identity_rate_fits_the_full_problem_bit_for_bit(family):
    # large and rare enough for a pilot start, so the pilot's weights count too
    data = rl.MarginalLogisticDesign(
        theta=rl.Coefficients(-5.0, [1.0, -0.5]), law=rl.GaussianLaw.standard(2)
    ).draw(60_000, rl.substream(3))
    kind = K(family, family.design_kind.identity_rate)
    design = rl.realize_design(kind, data, rl.substream(3, 1))
    assert np.array_equal(design.indicators, np.ones(data.n))
    full = rl.full_mle(data)
    start = rl.Coefficients(-4.0, [0.5, 0.0])
    for got, want in (
        (rl.fit_estimator(kind, data, design), full),
        (rl.fit_estimator(kind, data, design, start=start), rl.fit_estimator(K(F.FULL), data, start=start)),
    ):
        assert got.pilot_iterations == want.pilot_iterations
        assert (got.iterations, got.evaluations, got.stop_reason) == (want.iterations, want.evaluations, "converged")
        assert got.theta.as_vector().tobytes() == want.theta.as_vector().tobytes()
        assert got.neg_hessian.tobytes() == want.neg_hessian.tobytes()
    assert full.pilot_iterations > 0


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    order=st.permutations(range(len(KINDS))),
    max_iter=st.sampled_from([rl.SolverSettings().max_iter, SMALL_MAX_ITER]),
)
def test_the_report_is_that_of_fitting_every_kind(seed, d, order, max_iter):
    cfg = config(seed, d, order, max_iter)
    got = outcome(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_run_replication", replication_direct)
        want = outcome(cfg)
    assert got == want


@pytest.fixture
def recorded(monkeypatch):
    """Per replication the test appends, the kinds of its design draws and its fits.

    A fit is recorded as (kind, design, converged).
    """
    replications = []
    realize_design, fit_estimator = simulation.realize_design, simulation.fit_estimator
    lock = threading.Lock()

    def realize(kind, data, rng):
        with lock:  # drawn on the helper thread
            replications[-1][0].append(kind)
        return realize_design(kind, data, rng)

    def fit(kind, data, design, settings, *, start=None):
        converged = False
        try:
            result = fit_estimator(kind, data, design, settings, start=start)
            converged = result.converged
            return result
        finally:
            with lock:
                replications[-1][1].append((kind, design, converged))

    monkeypatch.setattr(simulation, "realize_design", realize)
    monkeypatch.setattr(simulation, "fit_estimator", fit)
    return replications


@pytest.mark.parametrize("max_iter", [rl.SolverSettings().max_iter, SMALL_MAX_ITER])
def test_no_identity_design_is_drawn_and_the_full_data_problem_is_fitted_until_it_converges(
    recorded, max_iter
):
    # the full-data kinds spread through the order, FULL among them
    order = (1, 2, 5, 0, 3, 6, 7, 9, 4, 8, 10, 11, 12)
    cfg = config(7, 2, order, max_iter, reps=4)
    for s in range(1, cfg.reps + 1):
        recorded.append(([], []))
        simulation._run_replication(cfg, s)
    refits = 0
    for draws, fits in recorded:
        # each of the four drawn designs once, none at an identity rate
        assert len(draws) == 4 and not any(full_data(kind) for kind in draws)
        problem = [(kind, design, ok) for kind, design, ok in fits if full_data(kind)]
        # fitted as the full estimator, and only until one such fit converges
        assert all(kind == K(F.FULL) and design is None for kind, design, _ in problem)
        assert [ok for _, _, ok in problem[:-1]] == [False] * (len(problem) - 1)
        taken = sum(map(full_data, cfg.estimators)) - len(problem)
        assert taken == 0 or problem[-1][2]
        assert len(fits) == len(order) - taken
        refits += len(problem) - 1
    # by default the first full-data fit converges; at 5 steps the cold ones fail
    assert (refits == 0) if max_iter == rl.SolverSettings().max_iter else (refits > 0)


def test_estimators_that_fail_in_every_replication_leave_the_other_entries():
    # the five kinds before over-bc at 5 are fitted cold, before any
    # anchor, and at 5 steps never converge; the kinds after them start
    # from the anchor and do
    order = (10, 2, 7, 4, 5, 12, 0, 3, 6, 9, 11, 8, 1)
    cfg = config(1, 2, order, SMALL_MAX_ITER)
    report = rl.run_experiment(cfg)
    assert [entry.failed for entry in report.entries] == [cfg.reps] * 5 + [0] * 8
    for entry in report.entries:
        stats = [entry.emse_total, entry.emse_alpha, *entry.emse_beta, *entry.error_mean,
                 *np.ravel(entry.scaled_cov)]
        assert len(stats) == 2 + 2 + 3 + 9
        assert np.all(np.isnan(stats) if entry.failed else np.isfinite(stats))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_run_replication", replication_direct)
        want = outcome(cfg)
    assert outcome(cfg) == want


# ----------------------------------------------------------------------------
# Property tests of anchored starts.
#
# Inside one replication every estimator lies near every other once its
# intercept shift is applied, so run_experiment starts each fit after the
# first converged one at that first estimate, or, when the fit's design was
# fitted before, at that design's latest estimate.  These properties pin
# that a start changes where a fit begins but not where it ends, which
# estimate each fit starts at, that the pi0 = 1 and lambda_n = 0 entries
# still equal the full-data entry exactly whatever the order of the
# estimators, and how many Newton steps a replication of the acceptance
# sweeps takes.
# ----------------------------------------------------------------------------

TIGHT = SolverSettings(tol=1e-10)

seeds = st.integers(0, 2**32 - 1)


def estimates(data, pi0, lam, seed):
    """Every family's cold-start fit on one problem, keyed by family."""
    under = undersample(data, pi0, substream(seed, 1))
    over = oversample(data, lam, substream(seed, 2))
    problems = {
        F.FULL: (K(F.FULL), None),
        F.UNDER_WEIGHTED: (K(F.UNDER_WEIGHTED, pi0), under),
        F.UNDER_BIAS_CORRECTED: (K(F.UNDER_BIAS_CORRECTED, pi0), under),
        F.OVER_WEIGHTED: (K(F.OVER_WEIGHTED, lam), over),
        F.OVER_BIAS_CORRECTED: (K(F.OVER_BIAS_CORRECTED, lam), over),
    }
    fits = {}
    for family, (kind, design) in problems.items():
        try:
            fit = fit_estimator(kind, data, design, TIGHT)
        except RareLogitError:
            continue
        if fit.converged:
            fits[family] = fit
    return problems, fits


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(30, 2000),
    d=st.integers(1, 3),
    pi0=st.floats(0.05, 1.0),
    lam=st.floats(0.0, 6.0),
)
def test_a_start_moves_the_path_not_the_optimum(seed, n, d, pi0, lam):
    data = rare_problem(seed, n, d)
    problems, cold = estimates(data, pi0, lam, seed)
    assume(F.FULL in cold)
    for family, fit in cold.items():
        kind, design = problems[family]
        want = fit.theta.as_vector()
        for start in cold.values():
            warm = fit_estimator(kind, data, design, TIGHT, start=start.theta)
            assert warm.converged
            got = warm.theta.as_vector()
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@PROPERTY
@given(seed=seeds, d=st.integers(1, 2), order=st.permutations(range(13)))
def test_identity_entries_stay_exact_in_any_order(seed, d, order):
    kinds = [K(F.FULL)]
    for family in (F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED):
        kinds += [K(family, rate) for rate in (0.3, 1.0)]
    for family in (F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED):
        kinds += [K(family, rate) for rate in (0.0, 2.0)]
    kinds += [K(family, 0.6) for family in (F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED)]
    kinds += [K(family, 5.0) for family in (F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED)]
    design = rl.MarginalLogisticDesign(
        theta=rl.Coefficients(-3.0, [1.0] * d), law=rl.GaussianLaw.standard(d)
    )
    config = rl.ExperimentConfig(
        design=design,
        n=3000,
        reps=3,
        estimators=tuple(kinds[i] for i in order),
        base_seed=seed,
    )
    report = rl.run_experiment(config)
    full = report.entry(K(F.FULL))
    for kind in (
        K(F.UNDER_WEIGHTED, 1.0),
        K(F.UNDER_BIAS_CORRECTED, 1.0),
        K(F.OVER_WEIGHTED, 0.0),
        K(F.OVER_BIAS_CORRECTED, 0.0),
    ):
        entry = report.entry(kind)
        assert entry.emse_total == full.emse_total
        assert entry.emse_alpha == full.emse_alpha
        assert_array_equal(entry.emse_beta, full.emse_beta)
        assert entry.failed == full.failed


def test_a_design_fitted_again_starts_at_its_latest_estimate(monkeypatch):
    # each design's second fit starts at its first fit's estimate, every
    # other fit after the anchor at the anchor
    calls = []

    def recording(kind, data, design, settings, start=None):
        fit = fit_estimator(kind, data, design, settings, start=start)
        calls.append((kind, start, fit))
        return fit

    monkeypatch.setattr(simulation, "fit_estimator", recording)
    kinds = (
        K(F.UNDER_BIAS_CORRECTED, 0.3),
        K(F.FULL),
        K(F.OVER_WEIGHTED, 2.0),
        K(F.UNDER_WEIGHTED, 0.3),
        K(F.OVER_BIAS_CORRECTED, 2.0),
        K(F.OVER_WEIGHTED, 2.0),
        K(F.UNDER_WEIGHTED, 0.6),
    )
    design = rl.MarginalLogisticDesign(
        theta=rl.Coefficients(-3.0, [1.0]), law=rl.GaussianLaw.standard(1)
    )
    config = rl.ExperimentConfig(
        design=design, n=3000, reps=1, estimators=kinds, base_seed=4
    )
    rl.run_experiment(config)
    assert [kind for kind, _, _ in calls] == list(kinds) and all(f.converged for *_, f in calls)
    theta = [fit.theta.as_vector() for _, _, fit in calls]
    # under-bc@0.3 is the anchor and under-w@0.3's design's first estimate;
    # over-bc@2 starts at over-w@2, then over-w@2 again at over-bc@2
    expected = [None, theta[0], theta[0], theta[0], theta[2], theta[4], theta[0]]
    for (kind, start, _), want in zip(calls, expected):
        if want is None:
            assert start is None, kind
        else:
            assert_array_equal(start.as_vector(), want, err_msg=str(kind))


ACCEPTANCE_RATES = {
    F.UNDER_WEIGHTED: (0.005, 0.01, 0.2, 0.5, 0.8, 1.0),
    F.OVER_WEIGHTED: (0.0, 3.48, 11.18, 53.6),
}


@pytest.mark.parametrize(
    "weighted, bias_corrected, bound, calls",
    [
        (F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED, 45, 11),
        (F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED, 30, 7),
    ],
    ids=["under", "over"],
)
def test_acceptance_replication_step_count(monkeypatch, weighted, bias_corrected, bound, calls):
    # from cold starts this replication takes 71 (under) and 49 (over) steps;
    # the two kinds at the identity rate take the full fit's estimate unfitted
    fits = []

    def recording(*args, **kwargs):
        fits.append(fit_estimator(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(simulation, "fit_estimator", recording)
    kinds = [K(F.FULL)]
    for rate in ACCEPTANCE_RATES[weighted]:
        kinds += [K(weighted, rate), K(bias_corrected, rate)]
    design = rl.MarginalLogisticDesign(
        theta=rl.Coefficients(-6.0, [1.0]), law=rl.GaussianLaw.standard(1)
    )
    config = rl.ExperimentConfig(
        design=design, n=100_000, reps=1, estimators=tuple(kinds), base_seed=20260810
    )
    rl.run_experiment(config)
    assert len(fits) == calls and all(fit.converged for fit in fits)
    steps = sum(fit.iterations for fit in fits)
    assert steps <= bound, f"{steps} Newton steps in one replication"

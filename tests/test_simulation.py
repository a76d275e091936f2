import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.integrate import quad
from scipy.special import expit

import rarelogit
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
    SolverSettings,
    calibrate_intercept,
    emse,
    full_mle,
    generate_conditional,
    generate_marginal,
    run_experiment,
    substream,
)

FULL = EstimatorKind(EstimatorFamily.FULL)


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
    def test_zero_slope_closed_form(self):
        law = GaussianLaw.standard(1)
        alpha = calibrate_intercept([0.0], law, 0.02)
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

    def test_threads_match_serial(self):
        config = self.small_config(reps=8)
        serial = run_experiment(config, threads=1)
        threaded = run_experiment(config, threads=2)
        assert serial.entries == threaded.entries
        assert serial.mean_n1 == threaded.mean_n1

    def test_pool_workers_run_one_blas_thread(self):
        # A process started with two OpenBLAS threads reports each loaded
        # library's thread count, and so does every pool worker in place of
        # its replication's n1; mean_n1 is then the workers' largest count.
        script = (
            "import ctypes\n"
            "import numpy as np\n"
            "import rarelogit as rl\n"
            "from rarelogit import simulation\n"
            "def blas_threads():\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        paths = {l.split()[-1] for l in fh if 'openblas' in l.lower() and '.so' in l}\n"
            "    names = ('openblas_get_num_threads', 'scipy_openblas_get_num_threads64_',\n"
            "             'scipy_openblas_get_num_threads')\n"
            "    libs = [ctypes.CDLL(path) for path in paths]\n"
            "    return max(getattr(lib, n)() for lib in libs for n in names if hasattr(lib, n))\n"
            "def replication(config, s):\n"
            "    return blas_threads(), [np.zeros(2)]\n"
            "simulation._run_replication = replication\n"
            "config = rl.ExperimentConfig(\n"
            "    design=rl.ConditionalGaussianDesign(1.0, 0.0, 1.0, 0.2), n=600, reps=8,\n"
            "    estimators=(rl.EstimatorKind(rl.EstimatorFamily.FULL),), base_seed=1)\n"
            "print(blas_threads(), rl.run_experiment(config, threads=2).mean_n1)\n"
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
    ],
    ids=[
        "law-lengths", "empty-law", "conditional-n", "marginal-n", "calibration-beta",
        "calibration-rate", "calibration-precision", "emse-dims", "config-n",
    ],
)
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()

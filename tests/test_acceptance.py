"""Acceptance suite: one test per criterion, each printing a pass/fail line.

These are the end-to-end gates for the package: simulation-scale checks of
the scaled eMSE regression targets and efficiency orderings, the analytic covariance
of the full-data estimator, the positive-semidefinite ordering properties,
exact degeneration identities, numerical-kernel agreement with independent
oracles, the calibration regression values, and byte-level determinism of
the CLI.  Run with `pytest tests/test_acceptance.py -v -s`.  Every Monte
Carlo gate reads a run_experiment report, run on every core; the module
takes about a minute on 2 vCPUs.
"""

import os

import numpy as np
import pytest

import rarelogit as rl
from rarelogit import EstimatorFamily as F
from rarelogit import EstimatorKind as K
from rarelogit.cli import main as cli_main

from _oracles import fd_gradient, fd_jacobian, grid_max_loglik

SEED = 20260810
# run_experiment's report is bit-identical for any thread count
THREADS = os.cpu_count() or 1
THETA_T = rl.Coefficients(-6.0, [1.0])
LAW = rl.GaussianLaw.standard(1)
MARGINAL = rl.MarginalLogisticDesign(theta=THETA_T, law=LAW)


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def under_sweep():
    kinds = [K(F.FULL)]
    for rate in (0.005, 0.01, 0.2, 0.5, 0.8, 1.0):
        kinds += [K(F.UNDER_WEIGHTED, rate), K(F.UNDER_BIAS_CORRECTED, rate)]
    config = rl.ExperimentConfig(
        design=MARGINAL, n=100_000, reps=500, estimators=tuple(kinds), base_seed=SEED
    )
    return rl.run_experiment(config, threads=THREADS)


@pytest.fixture(scope="module")
def over_sweep():
    kinds = [K(F.FULL)]
    for rate in (0.0, 3.48, 11.18, 53.6):
        kinds += [K(F.OVER_WEIGHTED, rate), K(F.OVER_BIAS_CORRECTED, rate)]
    config = rl.ExperimentConfig(
        design=MARGINAL, n=100_000, reps=500, estimators=tuple(kinds), base_seed=SEED
    )
    return rl.run_experiment(config, threads=THREADS)


def test_criterion_1_table1_reproduction():
    targets_alpha = {1_000: 2.51, 10_000: 2.06, 100_000: 2.22}
    targets_beta = {1_000: 1.21, 10_000: 1.09, 100_000: 1.00}
    rates = {1_000: 0.02, 10_000: 0.004, 100_000: 0.0008}
    scaled_alpha, scaled_beta, n_alpha = {}, {}, {}
    for n, rate in rates.items():
        config = rl.ExperimentConfig(
            design=rl.ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=rate),
            n=n,
            reps=500,
            estimators=(K(F.FULL),),
            base_seed=SEED,
        )
        entry = rl.run_experiment(config, threads=THREADS).entries[0]
        expected_n1 = n * rate
        scaled_alpha[n] = expected_n1 * entry.emse_alpha
        scaled_beta[n] = expected_n1 * sum(entry.emse_beta)
        n_alpha[n] = n * entry.emse_alpha

    in_band = all(
        abs(scaled_alpha[n] / targets_alpha[n] - 1.0) <= 0.30
        and abs(scaled_beta[n] / targets_beta[n] - 1.0) <= 0.30
        for n in rates
    )
    spread_alpha = max(scaled_alpha.values()) / min(scaled_alpha.values())
    spread_beta = max(scaled_beta.values()) / min(scaled_beta.values())
    growth = n_alpha[100_000] / n_alpha[1_000]
    ok = in_band and spread_alpha <= 2.0 and spread_beta <= 2.0 and growth >= 10.0
    report(
        "1 scaled eMSE table",
        ok,
        f"E(n1)*eMSE(a)={[round(scaled_alpha[n], 3) for n in rates]} vs {list(targets_alpha.values())} +-30%, "
        f"E(n1)*eMSE(b)={[round(scaled_beta[n], 3) for n in rates]} vs {list(targets_beta.values())} +-30%, "
        f"spreads {spread_alpha:.2f}/{spread_beta:.2f} <= 2.0, n-scaled growth {growth:.1f}x >= 10",
    )


def test_criterion_2_full_mle_asymptotic_covariance():
    config = rl.ExperimentConfig(
        design=MARGINAL, n=100_000, reps=1000, estimators=(K(F.FULL),), base_seed=SEED + 1
    )
    entry = rl.run_experiment(config, threads=THREADS).entries[0]
    empirical = np.array(entry.scaled_cov)
    target = np.array([[2.0, -1.0], [-1.0, 1.0]])
    rel_err = np.max(np.abs(empirical - target) / np.abs(target))

    # Monte Carlo consistency: the estimator centers on the truth; the ddof=1
    # variance of the errors is R/(R-1) (mean square - squared mean)
    successes = config.reps - entry.failed
    mean = np.array(entry.error_mean)
    mean_square = np.array([entry.emse_alpha, *entry.emse_beta])
    se = np.sqrt(successes / (successes - 1) * (mean_square - mean**2) / successes)
    centered = bool(np.all(np.abs(mean) <= 4.0 * se))
    report(
        "2 asymptotic covariance",
        rel_err <= 0.15 and centered and entry.failed == 0,
        f"empirical {np.round(empirical, 4).tolist()} vs [[2,-1],[-1,1]], max rel err {rel_err:.3f} <= 0.15; "
        f"mean within 4 SE of truth: {centered}",
    )


def test_criterion_3_undersampling_orderings(under_sweep):
    rep = under_sweep
    full = rep.entry(K(F.FULL)).emse_total
    get = lambda tag, rate: rep.entry(K(tag, rate)).emse_total

    ordered = all(
        get(F.UNDER_BIAS_CORRECTED, r) <= get(F.UNDER_WEIGHTED, r) for r in (0.005, 0.01)
    )
    deviations = {
        r: max(
            abs(get(F.UNDER_WEIGHTED, r) / full - 1.0),
            abs(get(F.UNDER_BIAS_CORRECTED, r) / full - 1.0),
        )
        for r in (0.2, 0.5, 0.8)
    }
    near_full = all(dev <= 0.10 for dev in deviations.values())
    exact = get(F.UNDER_WEIGHTED, 1.0) == full and get(F.UNDER_BIAS_CORRECTED, 1.0) == full
    ok = ordered and near_full and exact
    report(
        "3 under-sampling orderings",
        ok,
        f"bc<=w at pi0 in {{0.005, 0.01}}: {ordered}; max dev vs full "
        f"{ {r: round(d, 4) for r, d in deviations.items()} } <= 0.10; pi0=1 exact: {exact}",
    )


def test_criterion_4_oversampling_orderings(over_sweep):
    rep = over_sweep
    full = rep.entry(K(F.FULL)).emse_total
    get = lambda tag, rate: rep.entry(K(tag, rate)).emse_total

    ratio = get(F.OVER_WEIGHTED, 3.48) / full
    in_band = 1.05 <= ratio <= 1.40
    ordered = all(
        get(F.OVER_BIAS_CORRECTED, r) >= get(F.OVER_WEIGHTED, r) for r in (11.18, 53.6)
    )
    exact = get(F.OVER_WEIGHTED, 0.0) == full and get(F.OVER_BIAS_CORRECTED, 0.0) == full
    ok = in_band and ordered and exact
    report(
        "4 over-sampling orderings",
        ok,
        f"eMSE(ow)/eMSE(full)={ratio:.4f} in [1.05, 1.40] (inflation factor predicts 1.1734); "
        f"obc>=ow at lambda in {{11.18, 53.6}}: {ordered}; lambda=0 exact: {exact}",
    )


def test_criterion_5_psd_ordering_properties():
    rng = rl.substream(SEED + 2)
    inequality_ok = True
    for _ in range(100):
        m = int(rng.integers(10, 201))
        k = int(rng.integers(1, 6))
        vs = rng.standard_normal((m, k))
        hs = np.exp(rng.normal(0.0, 1.0, size=m))
        inequality_ok = inequality_ok and rl.weighted_moment_inequality_check(vs, hs, tol=1e-8)

    xs = rl.substream(SEED + 3).standard_normal(100_000)[:, None]
    beta = np.array([1.0])
    vf = rl.v_full(xs, beta).v
    lam = 1.23
    vow = rl.v_over_weighted(xs, beta, lam).v
    order_ok = True
    for const in (0.0, 0.1, 0.5, 1.0, 5.0):
        vw = rl.v_under_weighted(xs, beta, const).v
        vbc = rl.v_under_bc(xs, beta, const).v
        vobc = rl.v_over_bc(xs, beta, lam, const).v
        order_ok = (
            order_ok
            and rl.loewner_ge(vw, vbc, tol=1e-8)
            and rl.loewner_ge(vbc, vf, tol=1e-8)
            and rl.loewner_ge(vobc, vow, tol=1e-8)
        )
    ok = inequality_ok and order_ok
    report(
        "5 PSD ordering properties",
        ok,
        f"100 random empirical-measure instances PSD within 1e-8: {inequality_ok}; "
        f"V_bc<=V_w, V_f<=V_bc, V_ow<=V_obc over c grid {{0,0.1,0.5,1,5}}: {order_ok}",
    )


def test_criterion_6_degeneration_identities():
    rng = rl.substream(SEED + 4)
    x = rng.standard_normal((500, 1))
    y = (rng.random(500) < 0.2).astype(int)
    y[:2] = [1, 0]
    data = rl.Dataset(x=x, y=y)
    full = rl.full_mle(data)

    under = rl.undersample(data, 1.0, rl.substream(SEED + 5))
    over = rl.oversample(data, 0.0, rl.substream(SEED + 6))
    fits_exact = all(
        np.array_equal(fit.theta.as_vector(), full.theta.as_vector())
        for fit in (
            rl.under_weighted(data, under),
            rl.under_bias_corrected(data, under),
            rl.over_weighted(data, over),
            rl.over_bias_corrected(data, over),
        )
    )

    xs = rl.substream(SEED + 7).standard_normal(50_000)[:, None]
    beta = np.array([1.0])
    vf = rl.v_full(xs, beta).v
    variances_exact = (
        np.array_equal(rl.v_under_weighted(xs, beta, 0.0).v, vf)
        and np.array_equal(rl.v_under_bc(xs, beta, 0.0).v, vf)
        and np.array_equal(rl.v_over_weighted(xs, beta, 0.0).v, vf)
        and np.array_equal(rl.v_over_bc(xs, beta, 0.0, 0.0).v, vf)
    )
    ok = fits_exact and variances_exact
    report(
        "6 degeneration identities",
        ok,
        f"pi0=1 / lambda=0 estimator outputs equal full MLE exactly: {fits_exact}; "
        f"V_w(0)=V_bc(0)=V_ow(0)=V_obc(0,0)=V_f exactly: {variances_exact}",
    )


def test_criterion_7_numerical_kernels():
    rng = rl.substream(SEED + 8)
    worst_grad = worst_hess = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d))
        y = (rng.random(n) < 0.4).astype(int)
        y[:2] = [1, 0]
        w = rng.uniform(0.0, 2.0, size=n)
        theta = rl.Coefficients(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5, size=d))
        data = rl.Dataset(x=x, y=y)

        ana_g = rl.gradient(data, w, theta)
        fd_g = fd_gradient(
            lambda t: rl.log_likelihood(data, w, rl.Coefficients.from_vector(t)),
            theta.as_vector(),
        )
        worst_grad = max(
            worst_grad, np.max(np.abs(ana_g - fd_g)) / max(1.0, np.max(np.abs(ana_g)))
        )
        ana_h = rl.hessian(data, w, theta)
        fd_h = fd_jacobian(
            lambda t: rl.gradient(data, w, rl.Coefficients.from_vector(t)),
            theta.as_vector(),
        )
        worst_hess = max(
            worst_hess, np.max(np.abs(ana_h - fd_h)) / max(1.0, np.max(np.abs(ana_h)))
        )
    derivatives_ok = worst_grad <= 1e-6 and worst_hess <= 1e-6

    worst_fit = 0.0
    stationary_ok = True
    for trial in range(20):
        rng_t = rl.substream(SEED + 9, trial)
        n = int(rng_t.integers(15, 31))
        x = rng_t.standard_normal(n)
        p = 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x)))
        y = (rng_t.random(n) < p).astype(int)
        y[:2] = [1, 0]
        data = rl.Dataset(x=x[:, None], y=y)
        try:
            fit = rl.fit_mle(data, np.ones(n))
        except rl.RareLogitError:
            continue
        stationary_ok = stationary_ok and fit.converged and fit.grad_max_norm <= 1e-8
        a_star, b_star = grid_max_loglik(x, y, np.ones(n))
        worst_fit = max(
            worst_fit,
            abs(fit.theta.alpha - a_star),
            abs(fit.theta.beta[0] - b_star),
        )
    ok = derivatives_ok and worst_fit <= 1e-3 and stationary_ok
    report(
        "7 numerical kernels",
        ok,
        f"max FD rel err: grad {worst_grad:.2e}, hess {worst_hess:.2e} <= 1e-6; "
        f"max grid-oracle gap {worst_fit:.2e} <= 1e-3; converged fits at grad <= 1e-8: {stationary_ok}",
    )


def test_criterion_8_calibration_regression():
    rates = [0.02, 0.004, 0.0008, 0.00016]
    expected = [-4.39, -6.02, -7.63, -9.24]
    got = []
    for rate in rates:
        _, theta = rl.generate_conditional(10, rate, 1.0, 0.0, 1.0, rl.substream(0))
        got.append(round(theta.alpha, 2))
    ok = got == expected
    report("8 calibration regression", ok, f"induced intercepts {got} == {expected}")


def test_criterion_9_determinism(tmp_path):
    rng = rl.substream(SEED + 10)
    x = rng.standard_normal((150, 1))
    y = (rng.random(150) < 0.3).astype(int)
    y[:2] = [1, 0]
    data_path = tmp_path / "data.csv"
    from rarelogit.cli import save_dataset

    save_dataset(str(data_path), rl.Dataset(x=x, y=y))

    commands = {
        "fit": [
            "fit", "--data", str(data_path), "--estimator", "under-w",
            "--pi0", "0.2", "--seed", "17",
        ],
        "table1": ["table1", "--n", "1200", "--rate", "0.05", "--reps", "4", "--seed", "17"],
        "sweep threads=2": [
            "sweep", "--pi0-grid", "0.5,1.0", "--n", "900", "--theta-t=-2,1",
            "--reps", "6", "--seed", "17", "--threads", "2",
        ],
        "variance": ["variance", "--kind", "under-bc", "--beta", "1", "--c", "0.3",
                     "--m", "20000", "--seed", "17"],
    }
    identical = {}
    for name, args in commands.items():
        out1 = tmp_path / f"{name.split()[0]}_1.csv"
        out2 = tmp_path / f"{name.split()[0]}_2.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        identical[name] = out1.read_bytes() == out2.read_bytes()
    ok = all(identical.values())
    report("9 determinism", ok, f"byte-identical reruns: {identical}")

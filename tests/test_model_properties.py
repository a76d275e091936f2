"""Property tests of the Newton kernel and of the solver built on it."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rarelogit import (
    Coefficients,
    Dataset,
    GaussianLaw,
    RareLogitError,
    SolverSettings,
    fit_mle,
    full_mle,
    generate_marginal,
    gradient,
    hessian,
    log_likelihood,
    model,
    substream,
)

from _oracles import gradient_direct, hessian_direct, loglik_direct

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

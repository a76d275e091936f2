"""Property tests of the estimator table and the covariance table.

Each estimator is one weighted MLE plus an exact intercept shift, and each
covariance is one sandwich; these properties pin both tables on random
problems and designs.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rarelogit import (
    Dataset,
    EstimatorFamily,
    EstimatorKind,
    RareLogitError,
    SampleDesign,
    SingularMomentMatrixError,
    covariance,
    fit_estimator,
    fit_mle,
    full_mle,
    oversample,
    oversampling_variance_factor,
    substream,
    undersample,
)

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

F = EstimatorFamily
UNDER = (F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED)
OVER = (F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(30, 300)
dims = st.integers(1, 3)
pi0s = st.floats(0.05, 1.0)
lambdas = st.floats(0.0, 6.0)


def rare_problem(seed, n, d):
    """Logistic labels at a case rate of roughly 5-40%."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    eta = rng.uniform(-3.0, -0.5) + x @ rng.uniform(-1.0, 1.0, d)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    return Dataset(x=x, y=y)


def outcome(fit_fn, shift=None):
    """Everything a fit reports, bit for bit, or that it failed.

    shift, when given, is added to the intercept the way an estimator does.
    """
    try:
        fit = fit_fn()
    except RareLogitError:
        return "failed"
    theta = fit.theta.as_vector()
    if shift is not None:
        theta[0] = fit.theta.alpha + shift
    return (
        theta.tobytes(),
        fit.neg_hessian.tobytes(),
        fit.grad_max_norm,
        fit.iterations,
        fit.converged,
    )


class TestEstimatorTable:
    @PROPERTY
    @given(seed=seeds, n=sizes, d=dims, pi0=pi0s)
    def test_under_sampling_is_weighted_mle_plus_shift(self, seed, n, d, pi0):
        data = rare_problem(seed, n, d)
        design = undersample(data, pi0, substream(seed))
        # weights from y and the rate, not from the design's stored weights
        selected = design.indicators.astype(float)
        ipw = design.indicators / np.where(data.y == 1, 1.0, pi0)
        for family, weights, shift in (
            (F.UNDER_WEIGHTED, ipw, None),
            (F.UNDER_BIAS_CORRECTED, selected, math.log(pi0)),
        ):
            kind = EstimatorKind(family, pi0)
            assert outcome(lambda: fit_estimator(kind, data, design)) == outcome(
                lambda: fit_mle(data, weights), shift
            )

    @PROPERTY
    @given(seed=seeds, n=sizes, d=dims, lam=lambdas)
    def test_over_sampling_is_weighted_mle_plus_shift(self, seed, n, d, lam):
        data = rare_problem(seed, n, d)
        design = oversample(data, lam, substream(seed))
        counts = design.indicators.astype(float)
        ipw = design.indicators / np.where(data.y == 1, 1.0 + lam, 1.0)
        for family, weights, shift in (
            (F.OVER_WEIGHTED, ipw, None),
            (F.OVER_BIAS_CORRECTED, counts, -math.log1p(lam)),
        ):
            kind = EstimatorKind(family, lam)
            assert outcome(lambda: fit_estimator(kind, data, design)) == outcome(
                lambda: fit_mle(data, weights), shift
            )

    @PROPERTY
    @given(seed=seeds, n=sizes, d=dims)
    def test_pi0_one_and_lambda_zero_are_the_full_mle(self, seed, n, d):
        data = rare_problem(seed, n, d)
        full = outcome(lambda: full_mle(data))
        designs = {
            F.UNDER_WEIGHTED: undersample(data, 1.0, substream(seed, 1)),
            F.OVER_WEIGHTED: oversample(data, 0.0, substream(seed, 2)),
        }
        designs[F.UNDER_BIAS_CORRECTED] = designs[F.UNDER_WEIGHTED]
        designs[F.OVER_BIAS_CORRECTED] = designs[F.OVER_WEIGHTED]
        for family, design in designs.items():
            kind = EstimatorKind(family, design.rate)
            assert outcome(lambda: fit_estimator(kind, data, design)) == full

    @PROPERTY
    @given(seed=seeds, n=sizes, d=dims, pi0=pi0s, lam=lambdas)
    def test_row_permutation_moves_theta_by_rounding_only(self, seed, n, d, pi0, lam):
        data = rare_problem(seed, n, d)
        perm = np.random.default_rng(seed).permutation(n)
        permuted = Dataset(x=data.x[perm], y=data.y[perm])
        for families, design in (
            (UNDER, undersample(data, pi0, substream(seed))),
            (OVER, oversample(data, lam, substream(seed))),
        ):
            design_p = SampleDesign(
                kind=design.kind,
                rate=design.rate,
                indicators=design.indicators[perm],
            )
            for family in (F.FULL, *families):
                kind = EstimatorKind(family, None if family is F.FULL else design.rate)
                try:
                    a = fit_estimator(kind, data, design)
                    b = fit_estimator(kind, permuted, design_p)
                except RareLogitError:
                    continue
                assume(a.converged and b.converged)
                ta, tb = a.theta.as_vector(), b.theta.as_vector()
                assert np.max(np.abs(ta - tb)) <= 1e-10 * np.max(np.abs(ta))


class TestCovarianceTable:
    @PROPERTY
    @given(seed=seeds, m=st.integers(10, 200), d=dims, lam=lambdas)
    def test_zero_constants_and_inflation_are_exact(self, seed, m, d, lam):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((m, d))
        beta = rng.uniform(-1.0, 1.0, d)
        try:
            full = covariance(F.FULL, xs, beta).v
        except SingularMomentMatrixError:
            assume(False)
        assert_array_equal(covariance(F.UNDER_WEIGHTED, xs, beta, c=0.0).v, full)
        assert_array_equal(covariance(F.UNDER_BIAS_CORRECTED, xs, beta, c=0.0).v, full)
        assert_array_equal(covariance(F.OVER_BIAS_CORRECTED, xs, beta, c_o=0.0, lam=0.0).v, full)
        assert_array_equal(covariance(F.OVER_WEIGHTED, xs, beta, lam=0.0).v, full)
        factor = oversampling_variance_factor(lam)
        assert_array_equal(covariance(F.OVER_WEIGHTED, xs, beta, lam=lam).v, factor * full)

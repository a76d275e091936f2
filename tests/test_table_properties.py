"""Property tests of the estimator table and the covariance table.

Each estimator is one weighted MLE plus an exact intercept shift, and each
covariance is one sandwich; these properties pin both tables on random
problems and designs.  A design holds only the rows it selects or its
counts, and a fit gathers those rows from the dataset's z' = [1; x']; the
last properties pin that compact form against the full-length indicators.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from rarelogit import (
    Dataset,
    DesignKind,
    EstimatorFamily,
    EstimatorKind,
    RareLogitError,
    SampleDesign,
    SingularMomentMatrixError,
    covariance,
    effective_sample_size,
    fit_estimator,
    fit_mle,
    full_mle,
    moment_matrix,
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

# each family's bread, meat and constant as the paper gives them, written
# out here apart from the package's table so that a wrong row fails
SANDWICHES = {
    F.FULL: ("plain", None, None),
    F.UNDER_WEIGHTED: ("plain", "times", "c"),
    F.UNDER_BIAS_CORRECTED: ("over", None, "c"),
    F.OVER_WEIGHTED: ("plain", None, None),
    F.OVER_BIAS_CORRECTED: ("over", "over_sq", "c_o"),
}


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
                data=permuted,
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


class TestCompactDesign:
    @PROPERTY
    @given(seed=seeds, n=sizes, d=dims, pi0=pi0s, lam=lambdas)
    def test_drawn_and_constructed_designs_agree(self, seed, n, d, pi0, lam):
        data = rare_problem(seed, n, d)
        for families, drawn in (
            (UNDER, undersample(data, pi0, substream(seed))),
            (OVER, oversample(data, lam, substream(seed))),
        ):
            built = SampleDesign(data=data, kind=drawn.kind, rate=drawn.rate, indicators=drawn.indicators)
            assert drawn.indicators.dtype == built.indicators.dtype == np.int64
            assert_array_equal(drawn.indicators, built.indicators)
            for held in ("rows", "counts"):
                a, b = getattr(drawn, held), getattr(built, held)
                assert (a is None) == (b is None)
                if a is not None:
                    assert_array_equal(a, b)
            assert effective_sample_size(drawn) == effective_sample_size(built)
            assert effective_sample_size(built) == int(built.indicators.sum())
            for family in families:
                kind = EstimatorKind(family, drawn.rate)
                assert outcome(lambda: fit_estimator(kind, data, drawn)) == outcome(
                    lambda: fit_estimator(kind, data, built)
                )

    @PROPERTY
    @given(seed=seeds, n=sizes, d=dims, pi0=pi0s)
    def test_undersample_rows_are_its_selection(self, seed, n, d, pi0):
        data = rare_problem(seed, n, d)
        design = undersample(data, pi0, substream(seed))
        assert_array_equal(design.rows, np.flatnonzero(design.indicators))
        # the same single uniform draw as delta_i = y_i + (1 - y_i) 1{u_i <= pi0}
        u = substream(seed).random(n)
        assert_array_equal(design.indicators, np.where(data.y == 1, 1, u <= pi0))

    @PROPERTY
    @given(seed=seeds, n=sizes, d=dims, pi0=pi0s)
    def test_transpose_and_gathers_are_c_order(self, seed, n, d, pi0):
        # the kernel's BLAS calls round differently on the other memory order
        data = rare_problem(seed, n, d)
        rows = undersample(data, pi0, substream(seed)).rows
        for zt, x in ((data.zt, data.x), (data.take(rows).zt, data.x[rows])):
            assert_array_equal(zt, np.vstack((np.ones(x.shape[0]), x.T)))
            assert zt.flags.c_contiguous
        sub = data.take(rows)
        assert_array_equal(sub.x, data.x[rows])
        assert_array_equal(sub.y, data.y[rows])
        assert (sub.n1, sub.n0) == (int(data.y[rows].sum()), int((data.y[rows] == 0).sum()))


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", list(F))
    def test_covariance_is_its_rows_sandwich(self, family, d):
        rng = np.random.default_rng(2000 + d)
        xs = rng.normal(0.3, 1.2, (400, d))
        beta = rng.uniform(-1.0, 1.0, d)
        constants = {"c": 0.7, "c_o": 1.3, "lam": 2.0}
        bread_name, meat_name, constant = SANDWICHES[family]
        k = 0.0 if constant is None else constants[constant]
        bread, e_mean = moment_matrix(xs, beta, bread_name, k)
        meat = bread if meat_name is None else moment_matrix(xs, beta, meat_name, k)[0]
        oversampled = family.design_kind is DesignKind.OVERSAMPLE
        f = oversampling_variance_factor(constants["lam"]) if oversampled else 1.0
        bread_inv = np.linalg.inv(bread)
        expected = f * e_mean * bread_inv @ meat @ bread_inv
        assert_allclose(covariance(family, xs, beta, **constants).v, expected, rtol=1e-9)

"""Property tests of the estimator table and the covariance table.

Each estimator is one weighted MLE plus an exact intercept shift, and each
covariance is one sandwich; these properties pin both tables on random
problems and designs.  A design holds only the rows it selects or its
counts, and a fit gathers those rows from the dataset's z' = [1; x']; the
compact-design properties pin that form against the full-length indicators.
The last properties are the paper's Loewner orderings of the covariances,
and their orders of contact at a zero constant, on random covariate laws.
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
    loewner_ge,
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


# The orderings follow from the weighted-moment inequality, which holds under
# any probability measure, so they hold on every plug-in sample up to
# rounding; each is checked at loewner_ge's default tolerance.  The orders of
# contact at k = 0 hold as Loewner bounds too.  Write P = plain = E(e z z'),
# Q = E(e^2 z z'), O = over(k) and t = k e_max / (1 + k e_max) for the
# sample's largest e, so that every row's k e / (1 + k e) lies in [0, t]:
#   under: O^-1 >= P^-1 (2 P - O) P^-1, and P - O >= (1 - t) c Q, so
#          V_ubc(c) >= (1 - t) V_uw(c) + t V_full: V_uw - V_ubc = O(c^2);
#   over:  with u = k e / (1 + k e), O^-1 over_sq O^-1 - P^-1 is
#          O^-1 (E(u^2 e z z') - U P^-1 U) O^-1 for U = E(u e z z'), and
#          O >= (1 - t) P, so V_obc <= (1 + (c_o e_max)^2) V_ow.
laws = st.sampled_from(["gaussian", "t3", "uniform"])
covariate_dims = st.integers(1, 4)
sample_sizes = st.integers(50, 2_000)
constant_values = st.floats(0.0, 10.0)
rises = st.floats(0.01, 3.0)
# log10 of k e_max: a small value makes the contact bounds tight
contacts = st.floats(-4.0, 1.0)
# A sandwich rounds to about eps cond(P)^2 of its size, for the condition
# of P = plain.  Below this bound that is at most 6e-9, under loewner_ge's
# 1e-8; it turns away about 1 t(3) sample in 3 and no other.
CONDITION_BOUND = 5e3


def covariate_sample(seed, law, m, d):
    """m rows of a law with random means and scales, and random slopes beta."""
    rng = np.random.default_rng(seed)
    if law == "gaussian":
        draws = rng.standard_normal((m, d))
    elif law == "t3":
        draws = rng.standard_t(3, (m, d))
    else:
        draws = rng.uniform(-1.0, 1.0, (m, d))
    xs = rng.uniform(-1.0, 1.0, d) + rng.uniform(0.2, 1.5, d) * draws
    beta = rng.uniform(-1.0, 1.0, d)
    assume(np.linalg.cond(moment_matrix(xs, beta)[0]) <= CONDITION_BOUND)
    return xs, beta


def loewner_eq(a, b):
    return loewner_ge(a, b) and loewner_ge(b, a)


def v(family, xs, beta, **constants):
    return covariance(family, xs, beta, **constants).v


class TestCovarianceOrderings:
    @PROPERTY
    @given(seed=seeds, law=laws, m=sample_sizes, d=covariate_dims, c=constant_values, rise=rises)
    def test_under_sampling_orderings(self, seed, law, m, d, c, rise):
        xs, beta = covariate_sample(seed, law, m, d)
        full = v(F.FULL, xs, beta)
        uw, ubc = (v(family, xs, beta, c=c) for family in UNDER)
        assert loewner_ge(uw, ubc) and loewner_ge(ubc, full)
        # both rise with c
        assert loewner_ge(v(F.UNDER_WEIGHTED, xs, beta, c=c * (1.0 + rise) + rise), uw)
        assert loewner_ge(v(F.UNDER_BIAS_CORRECTED, xs, beta, c=c * (1.0 + rise) + rise), ubc)

    @PROPERTY
    @given(seed=seeds, law=laws, m=sample_sizes, d=covariate_dims, lam=constant_values, c_o=constant_values, rise=rises)
    def test_over_sampling_orderings(self, seed, law, m, d, lam, c_o, rise):
        xs, beta = covariate_sample(seed, law, m, d)
        full = v(F.FULL, xs, beta)
        ow = v(F.OVER_WEIGHTED, xs, beta, lam=lam)
        obc = v(F.OVER_BIAS_CORRECTED, xs, beta, lam=lam, c_o=c_o)
        # the replication inflation 1 + lam / (1 + lam)^2, written out apart from the package
        assert loewner_eq(ow, (1.0 + lam / (1.0 + lam) ** 2) * full)
        assert loewner_ge(obc, ow) and loewner_ge(ow, full)
        # V_obc rises with c_o; at a fixed c_o it peaks in lam at 1, so it does not rise with lam
        higher = v(F.OVER_BIAS_CORRECTED, xs, beta, lam=lam, c_o=c_o * (1.0 + rise) + rise)
        assert loewner_ge(higher, obc)

    @PROPERTY
    @given(seed=seeds, law=laws, m=sample_sizes, d=covariate_dims, c=constant_values)
    def test_under_weighted_is_affine_in_c(self, seed, law, m, d, c):
        # V_uw(c) = (1 - c) V_full + c V_uw(1), each side with nonnegative weights
        xs, beta = covariate_sample(seed, law, m, d)
        full = v(F.FULL, xs, beta)
        one = v(F.UNDER_WEIGHTED, xs, beta, c=1.0)
        assert loewner_eq(v(F.UNDER_WEIGHTED, xs, beta, c=c) + c * full, full + c * one)

    @PROPERTY
    @given(seed=seeds, law=laws, m=sample_sizes, d=covariate_dims, contact=contacts)
    def test_under_weighted_and_bias_corrected_touch_to_second_order(self, seed, law, m, d, contact):
        xs, beta = covariate_sample(seed, law, m, d)
        c = 10.0**contact / np.max(np.exp(xs @ beta))
        t = 10.0**contact / (1.0 + 10.0**contact)
        full = v(F.FULL, xs, beta)
        uw, ubc = (v(family, xs, beta, c=c) for family in UNDER)
        assert loewner_ge(ubc, (1.0 - t) * uw + t * full)

    @PROPERTY
    @given(seed=seeds, law=laws, m=sample_sizes, d=covariate_dims, lam=constant_values, contact=contacts)
    def test_over_weighted_and_bias_corrected_touch_to_second_order(self, seed, law, m, d, lam, contact):
        xs, beta = covariate_sample(seed, law, m, d)
        c_o = 10.0**contact / np.max(np.exp(xs @ beta))
        ow = v(F.OVER_WEIGHTED, xs, beta, lam=lam)
        obc = v(F.OVER_BIAS_CORRECTED, xs, beta, lam=lam, c_o=c_o)
        assert loewner_ge((1.0 + 100.0**contact) * ow, obc)

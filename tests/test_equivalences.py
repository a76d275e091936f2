"""The paper's exact relations between problems, as metamorphic properties.

Each property fits two problems whose optima are tied by an exact map and
compares the estimates.  A converged fit stops at max|grad| <= tol on its
max-rescaled objective, so to first order its estimate lies H^-1 grad from
its optimum, with H the negative Hessian it reports on that objective.  An
estimate carried through a linear map M therefore lies within
||M H^-1||_inf tol of the mapped optimum; slack() doubles that for the
second-order remainder.  Rounding adds a few ulps of the coefficients.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rarelogit import (
    Dataset,
    EstimatorFamily,
    EstimatorKind,
    RareLogitError,
    SolverSettings,
    fit_estimator,
    fit_mle,
    oversample,
    substream,
)

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
EPS = np.finfo(float).eps
ULPS = 4


def rare_problem(seed, n=3000, d=2):
    """Gaussian covariates and logistic labels at an intercept between -4 and -1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    theta = np.r_[rng.uniform(-4.0, -1.0), rng.uniform(-1.0, 1.0, d)]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(theta[0] + x @ theta[1:])))).astype(np.int64)
    return x, y


def first(call):
    """An example's first fit; the example is rejected when it raised or stopped short."""
    try:
        fit = call()
    except RareLogitError:
        fit = None
    assume(fit is not None and fit.converged)
    return fit


def related(call):
    """A fit whose optimum is the first fit's image under an exact map: it must converge too."""
    fit = call()
    assert fit.converged, fit.stop_reason
    return fit


def slack(fit, tol, m=None):
    """Twice ||m H^-1||_inf tol: how far fit's estimate, mapped by m, may lie from its optimum's image."""
    inverse = np.linalg.inv(fit.neg_hessian)
    if m is not None:
        inverse = m @ inverse
    return 2.0 * np.abs(inverse).sum(axis=1).max() * tol


@PROPERTY
@given(seed=seeds, lam=st.floats(0.5, 20.0))
def test_count_weights_fit_the_replicated_rows(seed, lam):
    # over-bc weights each row by its count: the objective of the rows
    # materialized count times each with unit weights, before the shift
    x, y = rare_problem(seed)
    data = Dataset(x=x, y=y)
    design = oversample(data, lam, substream(seed))
    tol = SolverSettings().tol
    weighted = first(lambda: fit_estimator(EstimatorKind(EstimatorFamily.OVER_BIAS_CORRECTED, lam), data, design))
    replicated = Dataset(x=np.repeat(x, design.counts, axis=0), y=np.repeat(y, design.counts))
    unit = related(lambda: fit_mle(replicated, np.ones(replicated.n)))
    got, want = weighted.theta.as_vector(), unit.theta.as_vector()
    want[0] -= math.log1p(lam)  # the shift log(pi(0) / pi(1)) = -log(1 + lambda_n)
    bound = slack(weighted, tol) + slack(unit, tol) + ULPS * EPS * np.abs(want).max()
    assert np.abs(got - want).max() <= bound


@PROPERTY
@given(seed=seeds)
def test_flipped_labels_fit_the_negated_coefficients(seed):
    # l(theta; x, 1 - y) = l(-theta; x, y) row by row.  Both fits start at
    # the log-odds and zero slopes, one the negation of the other exactly,
    # so every Newton step mirrors the other's up to rounding: the two stop
    # at the same step, with estimates a few ulps apart rather than the
    # slack() that the stopping rule alone allows.
    x, y = rare_problem(seed)
    ones = np.ones(y.shape[0])
    fit = first(lambda: fit_mle(Dataset(x=x, y=y), ones))
    flip = related(lambda: fit_mle(Dataset(x=x, y=1 - y), ones))
    theta, flipped = fit.theta.as_vector(), flip.theta.as_vector()
    assert flip.iterations == fit.iterations
    assert np.abs(theta + flipped).max() <= ULPS * EPS * np.abs(theta).max()


@PROPERTY
@given(
    seed=seeds,
    s=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
    t=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
)
def test_affine_covariate_maps_are_undone_exactly(seed, s, t):
    # a fit on x s + t maps back to theta by alpha = alpha' + beta'.t and
    # beta = beta' s, elementwise
    x, y = rare_problem(seed)
    s, t = np.array(s), np.array(t)
    # the map moves alpha' and beta' past 30 on unseparated data; the bound
    # guards against separation only
    solver = SolverSettings(divergence_bound=1e4)
    fit = first(lambda: fit_mle(Dataset(x=x, y=y), np.ones(y.shape[0]), settings=solver))
    mapped = related(lambda: fit_mle(Dataset(x=x * s + t, y=y), np.ones(y.shape[0]), settings=solver))
    theta, theta_mapped = fit.theta.as_vector(), mapped.theta.as_vector()
    back = np.eye(3)
    back[0, 1:], back[1:, 1:] = t, np.diag(s)
    got = back @ theta_mapped
    # the map back rounds each product it sums
    rounding = ULPS * EPS * (np.abs(theta).max() + (np.abs(back) @ np.abs(theta_mapped)).max())
    bound = slack(fit, solver.tol) + slack(mapped, solver.tol, back) + rounding
    assert np.abs(got - theta).max() <= bound

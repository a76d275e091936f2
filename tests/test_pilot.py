"""The pilot start of cold rare-events fits (see fit_mle).

A cold fit of at least PILOT_MIN_ROWS active rows whose control weight is
at least PILOT_MIN_RATIO times its case weight starts from a fit on every
case and every PILOT_STRIDE-th control, with the intercept moved back by
the log of the control weight the pilot kept.  These tests pin that the
pilot changes where such a fit starts but not where it ends, that a
failed pilot leaves no trace, which fits take it, and that it keeps the
fit exactly invariant under power-of-two weight scaling.
"""

import functools

import numpy as np
import pytest

from rarelogit import (
    Coefficients,
    Dataset,
    GaussianLaw,
    RareLogitError,
    SolverSettings,
    fit_mle,
    generate_marginal,
    model,
    substream,
)


def rare_marginal(seed, n=100_000, alpha=-6.0):
    """The acceptance sweeps' design: x ~ N(0, 1), theta = (alpha, 1)."""
    return generate_marginal(n, Coefficients(alpha, [1.0]), GaussianLaw.standard(1), substream(seed))


def fingerprint(fit):
    return (
        fit.theta.as_vector().tobytes(),
        fit.neg_hessian.tobytes(),
        fit.grad_max_norm,
        fit.iterations,
        fit.evaluations,
        fit.stop_reason,
        fit.pilot_iterations,
    )


def log_odds_start(data, w):
    """fit_mle's own log-odds start, as an explicit init."""
    w = w / w.max()
    alpha = np.log(np.sum(w, where=data.y == 1)) - np.log(np.sum(w, where=data.y == 0))
    return Coefficients(alpha, np.zeros(data.d))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pilot_start_reaches_the_log_odds_optimum_in_fewer_steps(seed):
    data = rare_marginal(seed)
    w = np.ones(data.n)
    piloted = fit_mle(data, w)
    cold = fit_mle(data, w, init=log_odds_start(data, w))
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
    assert fingerprint(fit) == fingerprint(fit_mle(data, w, init=log_odds_start(data, w)))


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
    assert fingerprint(fit) == fingerprint(fit_mle(data, w, init=log_odds_start(data, w)))
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
    assert fingerprint(fit) == fingerprint(fit_mle(data, w, init=log_odds_start(data, w)))


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

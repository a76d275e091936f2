"""Property tests of anchored starts.

Inside one replication every estimator lies near every other once its
intercept shift is applied, so run_experiment starts each fit after the
first converged one at that first estimate, or, when the fit's design was
fitted before, at that design's latest estimate.  These properties pin
that a start changes where a fit begins but not where it ends, which
estimate each fit starts at, that the pi0 = 1 and lambda_n = 0 entries
still equal the full-data entry exactly whatever the order of the
estimators, and how many Newton steps a replication of the acceptance
sweeps takes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import rarelogit as rl
from rarelogit import (
    EstimatorFamily,
    EstimatorKind,
    RareLogitError,
    SolverSettings,
    fit_estimator,
    oversample,
    substream,
    undersample,
)
from rarelogit import simulation

from test_table_properties import rare_problem

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

F = EstimatorFamily
K = EstimatorKind
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

"""One full-data problem per replication.

At pi0 = 1 and lambda_n = 0 a design keeps every row once with weight 1
and shifts the intercept by 0, so those kinds fit the full estimator's
problem.  run_experiment draws no design for them and fits that problem
until a fit of it converges; every later kind of it takes that estimate.
These tests pin that the report equals the one of drawing every design
and fitting every kind on its own (_oracles.replication_direct), and
that the draws and fits it skips are not made.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rarelogit as rl
from rarelogit import EstimatorFamily as F
from rarelogit import EstimatorKind as K
from rarelogit import simulation

from _oracles import replication_direct

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

"""FitResult.evaluations counts every kernel evaluation of a fit."""

import numpy as np
import pytest

from rarelogit import Coefficients, Dataset, fit_mle, model


@pytest.fixture()
def counted(monkeypatch):
    """A list that grows by one on every kernel evaluation."""
    calls = []
    evaluate = model._Kernel.evaluate

    def counting(self, theta_vec):
        calls.append(1)
        return evaluate(self, theta_vec)

    monkeypatch.setattr(model._Kernel, "evaluate", counting)
    return calls


def problem():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 1))
    y = (rng.random(200) < 0.3).astype(int)
    return Dataset(x=x, y=y)


def test_full_steps_cost_one_evaluation_each(counted):
    # from the log-odds start every Newton step is taken whole
    fit = fit_mle(problem(), np.ones(200))
    assert fit.converged and fit.iterations >= 2
    assert fit.evaluations == fit.iterations + 1 == len(counted)


def test_halved_steps_add_evaluations(counted):
    # from far off the first full Newton steps overshoot and are halved
    fit = fit_mle(problem(), np.ones(200), init=Coefficients(10.0, [0.0]))
    assert fit.converged
    assert fit.evaluations > fit.iterations + 1
    assert fit.evaluations == len(counted)


def test_a_start_at_the_optimum_costs_one_evaluation(counted):
    data = problem()
    cold = fit_mle(data, np.ones(200))
    warm = fit_mle(data, np.ones(200), init=cold.theta)
    assert (warm.iterations, warm.evaluations) == (0, 1)
    assert warm.theta.as_vector().tobytes() == cold.theta.as_vector().tobytes()


def test_no_improving_step_stops_the_fit_unconverged(monkeypatch, counted):
    # a descent direction: every halving lowers the concave objective
    solve = model._solve_newton
    monkeypatch.setattr(model, "_solve_newton", lambda neg_hess, grad: -solve(neg_hess, grad))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 2))
    y = (rng.random(2000) < 1.0 / (1.0 + np.exp(2.0 - x @ [1.0, -0.5]))).astype(int)
    fit = fit_mle(Dataset(x=x, y=y), np.ones(2000))
    assert not fit.converged and fit.grad_max_norm > 1e-8
    assert fit.stop_reason == "stalled"
    # the start, then the full step and its 30 halvings, all rejected
    assert (fit.iterations, fit.evaluations, len(counted)) == (0, 32, 32)
    log_odds = np.log(np.sum(np.ones(2000), where=y == 1)) - np.log(np.sum(np.ones(2000), where=y == 0))
    assert fit.theta.as_vector().tobytes() == np.array([log_odds, 0.0, 0.0]).tobytes()

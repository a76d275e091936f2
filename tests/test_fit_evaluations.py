"""FitResult.evaluations counts every kernel evaluation of a fit."""

import numpy as np
import pytest

from rarelogit import Coefficients, Dataset, fit_mle, model


@pytest.fixture()
def counted(monkeypatch):
    """A list that grows by the method's name on every kernel pass over the rows."""
    calls = []
    for name in ("evaluate", "derivatives"):

        def counting(self, theta_vec, name=name, method=getattr(model._Kernel, name)):
            calls.append(name)
            return method(self, theta_vec)

        monkeypatch.setattr(model._Kernel, name, counting)
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


@pytest.mark.parametrize("between", ["other-dataset", "subset", "one-weight"])
def test_a_start_at_the_optimum_of_another_problem_costs_one_evaluation(counted, between):
    data = problem()
    cold = fit_mle(data, np.ones(200))
    target, w = data, np.ones(200)
    if between == "other-dataset":
        # the same rows in another Dataset: another zt object
        target = Dataset(x=data.x.copy(), y=data.y.copy())
    elif between == "subset":
        # a take() subset shares the buffer and rewrites its weights
        model.log_likelihood(data.take(np.arange(150)), np.ones(150), cold.theta)
    else:
        w[7] = 1.0 - 2.0**-52
    calls = len(counted)
    warm = fit_mle(target, w, init=cold.theta)
    assert warm.converged
    assert (warm.iterations, warm.evaluations, len(counted)) == (0, 1, calls + 1)
    fresh = fit_mle(Dataset(x=data.x.copy(), y=data.y.copy()), w, init=cold.theta)
    assert warm.neg_hessian.tobytes() == fresh.neg_hessian.tobytes()


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

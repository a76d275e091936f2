"""FitResult.evaluations counts every objective evaluation of a fit."""

import numpy as np
import pytest

from rarelogit import Coefficients, Dataset, fit_mle, model


@pytest.fixture()
def counted(monkeypatch):
    """A list that grows by one on every kernel objective evaluation."""
    calls = []
    objective = model._Kernel.objective

    def counting(self, theta_vec):
        calls.append(1)
        return objective(self, theta_vec)

    monkeypatch.setattr(model._Kernel, "objective", counting)
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

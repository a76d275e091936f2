"""Property tests of the line search's two acceptance rules.

A fit's first step, halved or not, is judged on the objective; every
later candidate is evaluated without the objective and judged on its
slope along the step taken (see model._newton).  These tests pin that the
derivative-only pass gives evaluate()'s gradient and Hessian bit for bit,
that the slope rule never accepts a step the objective rule rejects, and
that fit_mle takes the steps of _oracles.newton_one_rule, a solver with
those two rules built on the public sums, bit for bit: on small random
problems, and with forced overshooting steps and descent directions, which
are halved on derivative-only passes alone.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rarelogit import Dataset, RareLogitError, fit_mle, model

from _oracles import newton_one_rule
from test_model_properties import PROPERTY, dims, logistic_problem, random_problem, seeds

SOLVE = model._solve_newton


def stall_problem():
    """The stall test's problem in test_fit_evaluations: 2000 rows, d = 2."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 2))
    y = (rng.random(2000) < 1.0 / (1.0 + np.exp(2.0 - x @ [1.0, -0.5]))).astype(int)
    return Dataset(x=x, y=y), np.ones(2000)


def check_derivatives_match_evaluate(data, w, theta):
    kernel = model._Kernel(data, w, w.max())
    first = kernel.derivatives(theta)
    _, grad, neg_hess = kernel.evaluate(theta)
    again = kernel.derivatives(theta)
    for got in (first, again):
        assert got[0].tobytes() == grad.tobytes()
        assert got[1].tobytes() == neg_hess.tobytes()


class TestDerivativePass:
    @PROPERTY
    @given(seed=seeds, n=st.integers(1, 40), d=dims, scale=st.sampled_from([0.1, 1.0, 30.0, 300.0]))
    def test_one_block_matches_evaluate_bit_for_bit(self, seed, n, d, scale):
        x, y, w = random_problem(seed, n, d)
        assume(w.max() > 0)
        theta = np.random.default_rng(seed + 1).normal(0.0, scale, d + 1)
        check_derivatives_match_evaluate(Dataset(x=x, y=y), w, theta)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1, model.BLOCK_ROWS + 17])
    def test_across_kernel_blocks(self, extra, d):
        x, y, w = random_problem(extra + 2, model.BLOCK_ROWS + extra, d)
        theta = np.random.default_rng(extra + 3).normal(0.0, 1.0, d + 1)
        check_derivatives_match_evaluate(Dataset(x=x, y=y), w, theta)


def check_rules_along_newton_steps(data, w, multiples, steps=8):
    """Walk the plain Newton iterates and judge multiples of each step by both rules.

    Returns how many candidates the gradient rule accepted; every one of
    them the objective rule accepts too.
    """
    kernel = model._Kernel(data, w, w.max())
    theta = model._log_odds_start(kernel.w, data.y, data.d)
    accepted = 0
    for _ in range(steps):
        obj, grad, neg_hess = kernel.evaluate(theta)
        try:
            step = SOLVE(neg_hess, grad)
        except RareLogitError:
            break
        for t in multiples:
            cand_obj, cand_grad, _ = kernel.evaluate(theta + t * step)
            if model._gradient_accepts(cand_grad, t * step):
                accepted += 1
                assert model._objective_accepts(cand_obj, obj), (theta, t)
        theta = theta + step
        if np.max(np.abs(theta)) > 30.0:
            break
    return accepted


# overshoots, the full step, halvings, and descent directions
MULTIPLES = (8.0, 4.0, 2.0, 1.5, 1.0, 0.5, 0.25, -0.5, -1.0)


class TestGradientRule:
    @PROPERTY
    @given(seed=seeds, n=st.integers(150, 400), d=st.integers(1, 2), alpha=st.floats(-3.5, 0.5))
    def test_accepts_only_what_the_objective_rule_accepts(self, seed, n, d, alpha):
        # the later iterates sit at the optimum, where both rules work at
        # the float resolution of the objective
        data, w = logistic_problem(seed, n, d, alpha)
        assume(data.n1 >= 5 and data.n0 >= 5)
        assert check_rules_along_newton_steps(data, w, MULTIPLES) > 0

    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 60), d=dims)
    def test_on_arbitrary_labels_and_weights(self, seed, n, d):
        x, y, w = random_problem(seed, n, d)
        assume(w @ y > 0 and w @ (1 - y) > 0)
        check_rules_along_newton_steps(Dataset(x=x, y=y), w, MULTIPLES)

    def test_rejects_the_stall_tests_descent_direction(self):
        data, w = stall_problem()
        kernel = model._Kernel(data, w, 1.0)
        theta = model._log_odds_start(kernel.w, data.y, data.d)
        obj, grad, neg_hess = kernel.evaluate(theta)
        descent = -SOLVE(neg_hess, grad)
        for k in range(model.MAX_HALVINGS + 1):
            cand_obj, cand_grad, _ = kernel.evaluate(theta + 0.5**k * descent)
            assert not model._objective_accepts(cand_obj, obj)
            assert not model._gradient_accepts(cand_grad, 0.5**k * descent)
        assert check_rules_along_newton_steps(data, w, MULTIPLES) > 0


def solve_after(normal, factor):
    """A Newton solve that multiplies every step after the first normal ones by factor."""
    calls = itertools.count()
    return lambda neg_hess, grad: SOLVE(neg_hess, grad) * (1.0 if next(calls) < normal else factor)


def log_odds_start(data, w):
    """fit_mle's start on the positively weighted rows, with the weights rescaled by their maximum."""
    keep = w > 0
    return model._log_odds_start(w[keep] / w[keep].max(), data.y[keep], data.d)


def assert_takes_the_oracles_steps(fit, expected):
    assert fit.theta.as_vector().tobytes() == expected[0].tobytes()
    assert (fit.iterations, fit.stop_reason) == expected[1:]


class TestOneRulePerStep:
    """fit_mle takes the oracle's steps from its log-odds start, with no forced steps.

    These problems lie below PILOT_MIN_ROWS, so no pilot runs.
    """

    @PROPERTY
    @given(seed=seeds, n=st.integers(150, 400), d=st.integers(1, 2), alpha=st.floats(-3.5, 0.5))
    def test_logistic_problems(self, seed, n, d, alpha):
        data, w = logistic_problem(seed, n, d, alpha)
        assume(data.n1 >= 5 and data.n0 >= 5)
        self.check(data, w)

    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 60), d=dims)
    def test_arbitrary_labels_and_weights(self, seed, n, d):
        x, y, w = random_problem(seed, n, d)
        assume(w @ y > 0 and w @ (1 - y) > 0)
        self.check(Dataset(x=x, y=y), w)

    @staticmethod
    def check(data, w):
        assert data.n < model.PILOT_MIN_ROWS
        try:
            fit = fit_mle(data, w)
        except RareLogitError as err:
            with pytest.raises(type(err)):
                newton_one_rule(data, w, log_odds_start(data, w), SOLVE)
            return
        assert_takes_the_oracles_steps(fit, newton_one_rule(data, w, log_odds_start(data, w), SOLVE))


class TestForcedSteps:
    """No sweep makes a later step overshoot, so these force it.

    A step three times the Newton step, after one or two normal steps, is
    halved until the slope along it at the candidate is not negative: to
    three quarters of the Newton step where the objective is close to
    quadratic, where the objective rule took one and a half.  A descent
    direction fails the slope rule at every halving and stalls.  Both are
    judged on derivative-only passes alone.
    """

    @pytest.mark.parametrize("normal", [1, 2])
    @PROPERTY
    @given(seed=seeds, n=st.integers(150, 400), d=st.integers(1, 2), alpha=st.floats(-3.5, 0.5))
    def test_an_overshooting_step_matches_the_oracle(self, normal, seed, n, d, alpha):
        data, w = logistic_problem(seed, n, d, alpha)
        assume(data.n1 >= 5 and data.n0 >= 5)
        try:
            self.check(data, w, 3.0, normal)
        except RareLogitError:
            assume(False)

    @pytest.mark.parametrize("normal", [1, 2])
    def test_a_descent_direction_stalls(self, normal):
        data, w = stall_problem()
        fit = self.check(data, w, -1.0, normal)
        assert (fit.stop_reason, fit.iterations) == ("stalled", normal)

    @staticmethod
    def check(data, w, factor, normal):
        passes = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("evaluate", "derivatives"):

                def counting(self, theta, name=name, method=getattr(model._Kernel, name)):
                    passes.append(name)
                    return method(self, theta)

                patch.setattr(model._Kernel, name, counting)
            patch.setattr(model, "_solve_newton", solve_after(normal, factor))
            fit = fit_mle(data, w)
        expected = newton_one_rule(data, w, log_odds_start(data, w), solve_after(normal, factor))
        assert_takes_the_oracles_steps(fit, expected)
        # the start and the first step's candidates read the objective, and
        # no later candidate does
        first = passes.index("derivatives")
        assert first >= 2
        assert passes == ["evaluate"] * first + ["derivatives"] * (len(passes) - first)
        assert fit.evaluations == len(passes)
        return fit

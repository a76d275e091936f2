"""The kernel buffer model._lending lends the fits of one thread.

Inside a block, every kernel built on the thread reuses one buffer instead
of allocating its own.  These tests pin what that reuse must not change:
results of concurrent fits, results already returned, fits after a failed
fit or after a subset that outgrew the buffer, subsets gathered on another
thread and pickling; and the allocation it saves, and how nested blocks
share and free the buffer.
"""

import copy
import pickle
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rarelogit import (
    Coefficients,
    ConditionalGaussianDesign,
    Dataset,
    EstimatorFamily,
    EstimatorKind,
    ExperimentConfig,
    SeparationError,
    SingularHessianError,
    fit_mle,
    gradient,
    hessian,
    log_likelihood,
    model,
    run_experiment,
    simulation,
)


def rare_data(n, d, seed=0, alpha=-3.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    p = 1.0 / (1.0 + np.exp(-(alpha + x @ np.linspace(1.0, -0.5, d))))
    return Dataset(x=x, y=(rng.random(n) < p).astype(np.int64))


def fingerprint(fit):
    return (
        fit.theta.as_vector().tobytes(),
        fit.neg_hessian.tobytes(),
        fit.grad_max_norm,
        fit.iterations,
        fit.evaluations,
        fit.converged,
        fit.pilot_iterations,
    )


def fit_problems(data):
    """Eight fits on data and on a subset of it, with float and count weights."""
    rng = np.random.default_rng(1)
    sub = data.take(np.flatnonzero(rng.random(data.n) < 0.4))
    problems = []
    for target in (data, sub):
        problems.append((target, np.ones(target.n)))
        problems.append((target, rng.uniform(0.5, 2.0, target.n)))
        problems.append((target, target.y * rng.poisson(3.0, target.n) + 1))
        problems.append((target, 1.0 / (0.2 + 0.8 * target.y)))
    return problems


@pytest.mark.parametrize(
    "n, alpha",
    [
        (model.BLOCK_ROWS // 2, -3.0),
        (3 * model.BLOCK_ROWS + 17, -3.0),
        # every fit, the 40% subset's too, is rare and large enough for a pilot
        (int(2.6 * model.PILOT_MIN_ROWS), -5.5),
    ],
    ids=["one-block", "four-blocks", "pilot"],
)
def test_concurrent_fits_match_sequential_fits_bit_for_bit(n, alpha):
    # the 40% subsets of the four-block dataset span two kernel blocks; a
    # pilot's kernel shares the lent buffer of the fit it starts, and each
    # worker fits in its own block while this thread holds another
    data = rare_data(n, 2, alpha=alpha)
    problems = fit_problems(data)
    expected = [fingerprint(fit_mle(target, w)) for target, w in problems]
    took_pilot = [fit[-1] > 0 for fit in expected]
    assert all(took_pilot) if alpha == -5.5 else not any(took_pilot)
    for _ in range(3):
        got = [None] * len(problems)
        barrier = threading.Barrier(4)

        def work(k):
            barrier.wait()
            with model._lending():
                for i in range(k, len(problems), 4):
                    got[i] = fingerprint(fit_mle(*problems[i]))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        with model._lending():
            fit_mle(*problems[0])
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert got == expected


def test_returned_arrays_survive_later_fits():
    data = rare_data(5_000, 3)
    rng = np.random.default_rng(2)
    theta = Coefficients(-2.0, [0.5, -0.5, 0.25])
    with model._lending():
        first = fit_mle(data, np.ones(data.n))
        grad = gradient(data, np.ones(data.n), theta)
        hess = hessian(data, np.ones(data.n), theta)
        kept = [a.copy() for a in (first.theta.beta, first.neg_hessian, grad, hess)]
        fit_mle(data, rng.uniform(0.1, 1.0, data.n))
        fit_mle(data.take(np.arange(0, data.n, 3)), np.ones(-(-data.n // 3)))
        log_likelihood(data, rng.uniform(0.1, 1.0, data.n), theta)
        buf = model._lent.buf
    for now, then in zip((first.theta.beta, first.neg_hessian, grad, hess), kept):
        assert not np.shares_memory(now, buf)
        assert_array_equal(now, then)


@pytest.mark.parametrize(
    "error, x, rows, init",
    [
        # rows 0-5 alone are separated by the sign of x
        (SeparationError, [-1.0, -0.75, -0.5, 0.5, 0.75, 1.0, 0.15, -0.15], np.arange(6), None),
        # a saturated start: curvature underflows while the gradient does not
        (SingularHessianError, np.zeros(8), np.arange(8), Coefficients(-800.0, [0.0])),
    ],
)
def test_a_failed_fit_in_a_block_leaves_the_next_fit_unchanged(error, x, rows, init):
    data = Dataset(x=np.reshape(x, (8, 1)), y=[0, 0, 0, 1, 1, 1, 0, 1])
    sub = data.take(rows)
    expected = fingerprint(fit_mle(data, np.ones(8)))
    with model._lending():
        with pytest.raises(error):
            fit_mle(sub, np.ones(sub.n), init=init)
        assert fingerprint(fit_mle(data, np.ones(8))) == expected


def test_subset_longer_than_its_parent_and_the_parent_after_it_fit_exactly():
    data = rare_data(300, 2)
    rows = np.r_[np.arange(300), np.arange(0, 300, 2)]
    sub = data.take(rows)
    fresh_sub = Dataset(x=data.x[rows], y=data.y[rows])
    fresh = Dataset(x=data.x.copy(), y=data.y.copy())
    expected = fingerprint(fit_mle(fresh, np.ones(300)))
    expected_sub = fingerprint(fit_mle(fresh_sub, np.ones(450)))
    with model._lending():
        assert fingerprint(fit_mle(data, np.ones(300))) == expected
        # the subset outgrows the buffer the parent's fit made
        assert fingerprint(fit_mle(sub, np.ones(450))) == expected_sub
        assert fingerprint(fit_mle(data, np.ones(300))) == expected


def test_subsets_gathered_on_the_design_helper_read_the_parent_zt(monkeypatch):
    # run_experiment gathers each under-sampled subset on its helper thread
    # from the parent's zt, which the dataset holds from when it was made
    gathered, checked = {}, []
    take, fit_estimator = Dataset.take, simulation.fit_estimator

    def recording_take(self, rows):
        sub = take(self, rows)
        gathered[id(sub)] = (threading.get_ident(), self.zt)
        return sub

    def checking_fit(kind, data, design, *args, **kwargs):
        if design is None:
            return fit_estimator(kind, data, design, *args, **kwargs)
        sub, _ = design.select(data)
        thread, parent_zt = gathered[id(sub)]
        checked.append((thread != threading.get_ident(), parent_zt is data.zt))
        return fit_estimator(kind, data, design, *args, **kwargs)

    monkeypatch.setattr(Dataset, "take", recording_take)
    monkeypatch.setattr(simulation, "fit_estimator", checking_fit)
    U, B = EstimatorFamily.UNDER_WEIGHTED, EstimatorFamily.UNDER_BIAS_CORRECTED
    config = ExperimentConfig(
        design=ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=0.1),
        n=3_000,
        reps=2,
        estimators=(EstimatorKind(EstimatorFamily.FULL), EstimatorKind(U, 0.3), EstimatorKind(B, 0.3)),
        base_seed=4,
    )
    assert all(entry.failed == 0 for entry in run_experiment(config).entries)
    assert checked == [(True, True)] * 4


@pytest.mark.parametrize("d", [1, 3])
def test_fitted_datasets_pickle_and_copy(d):
    data = rare_data(400, d)
    sub = data.take(np.arange(0, 400, 2))
    fits = [fingerprint(fit_mle(target, np.ones(target.n))) for target in (data, sub)]
    for target, fit in zip((data, sub), fits):
        for clone in (pickle.loads(pickle.dumps(target)), copy.deepcopy(target)):
            for name in ("x", "y", "zt"):
                assert_array_equal(getattr(clone, name), getattr(target, name))
            assert (clone.n1, clone.n0) == (target.n1, target.n0)
            assert fingerprint(fit_mle(clone, np.ones(clone.n))) == fit


def test_repeat_fit_in_a_block_allocates_no_length_n_temporary():
    n = 100_000
    data = rare_data(n, 1)
    w = np.random.default_rng(3).uniform(0.5, 1.5, n)
    with model._lending():
        fit_mle(data, w)  # the first fit allocates the lent buffer
        tracemalloc.start()
        try:
            fit_mle(data, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 8 * n


def test_a_nested_block_reuses_the_outer_buffer_and_only_the_outer_block_frees_it():
    data = rare_data(2_000, 2)
    small = data.take(np.arange(0, data.n, 4))
    assert not hasattr(model._lent, "buf")
    with model._lending():
        fit_mle(data, np.ones(data.n))
        outer = model._lent.buf
        with model._lending():
            assert model._lent.buf is outer
            fit_mle(small, np.ones(small.n))
        assert model._lent.buf is outer
        # an inner block that raises frees nothing either
        with pytest.raises(RuntimeError, match="inner"), model._lending():
            fit_mle(small, np.ones(small.n))
            raise RuntimeError("inner")
        assert model._lent.buf is outer
        lent = weakref.ref(outer)
        del outer
    assert not hasattr(model._lent, "buf")
    assert lent() is None

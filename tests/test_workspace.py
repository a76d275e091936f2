"""The kernel buffers a Dataset keeps for its fits and its row subsets' fits.

Each fitting thread reuses one buffer per dataset, shared with the
dataset's take() subsets, instead of allocating its own per fit.  These
tests pin what that reuse must not change: results of concurrent fits,
results already returned, fits after a failed fit or after a subset that
outgrew the buffer, pickling, and the allocation it saves.
"""

import copy
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rarelogit import (
    Coefficients,
    Dataset,
    SeparationError,
    SingularHessianError,
    fit_mle,
    gradient,
    hessian,
    log_likelihood,
    model,
)


def rare_data(n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    p = 1.0 / (1.0 + np.exp(-(-3.0 + x @ np.linspace(1.0, -0.5, d))))
    return Dataset(x=x, y=(rng.random(n) < p).astype(np.int64))


def fingerprint(fit):
    return (
        fit.theta.as_vector().tobytes(),
        fit.neg_hessian.tobytes(),
        fit.grad_max_norm,
        fit.iterations,
        fit.evaluations,
        fit.converged,
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
    "n", [model.BLOCK_ROWS // 2, 3 * model.BLOCK_ROWS + 17], ids=["one-block", "four-blocks"]
)
def test_concurrent_fits_match_sequential_fits_bit_for_bit(n):
    # the 40% subsets of the four-block dataset span two kernel blocks
    data = rare_data(n, 2)
    problems = fit_problems(data)
    expected = [fingerprint(fit_mle(target, w)) for target, w in problems]
    for _ in range(3):
        got = [None] * len(problems)
        barrier = threading.Barrier(4)

        def work(k):
            barrier.wait()
            for i in range(k, len(problems), 4):
                got[i] = fingerprint(fit_mle(*problems[i]))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == expected


def test_returned_arrays_survive_later_fits():
    data = rare_data(5_000, 3)
    rng = np.random.default_rng(2)
    theta = Coefficients(-2.0, [0.5, -0.5, 0.25])
    first = fit_mle(data, np.ones(data.n))
    grad = gradient(data, np.ones(data.n), theta)
    hess = hessian(data, np.ones(data.n), theta)
    kept = [a.copy() for a in (first.theta.beta, first.neg_hessian, grad, hess)]
    fit_mle(data, rng.uniform(0.1, 1.0, data.n))
    fit_mle(data.take(np.arange(0, data.n, 3)), np.ones(-(-data.n // 3)))
    log_likelihood(data, rng.uniform(0.1, 1.0, data.n), theta)
    buf = data._workspace.buf
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
def test_failed_fit_frees_the_workspace(error, x, rows, init):
    data = Dataset(x=np.reshape(x, (8, 1)), y=[0, 0, 0, 1, 1, 1, 0, 1])
    sub = data.take(rows)
    with pytest.raises(error):
        fit_mle(sub, np.ones(sub.n), init=init)
    assert sub._workspace is data._workspace
    fresh = Dataset(x=data.x.copy(), y=data.y.copy())
    assert fingerprint(fit_mle(data, np.ones(8))) == fingerprint(fit_mle(fresh, np.ones(8)))


def test_subset_longer_than_its_parent_and_the_parent_after_it_fit_exactly():
    data = rare_data(300, 2)
    rows = np.r_[np.arange(300), np.arange(0, 300, 2)]
    sub = data.take(rows)
    fresh_sub = Dataset(x=data.x[rows], y=data.y[rows])
    fresh = Dataset(x=data.x.copy(), y=data.y.copy())
    expected = fingerprint(fit_mle(fresh, np.ones(300)))
    assert fingerprint(fit_mle(data, np.ones(300))) == expected
    # the subset outgrows the buffer the parent's fit made
    assert fingerprint(fit_mle(sub, np.ones(450))) == fingerprint(fit_mle(fresh_sub, np.ones(450)))
    assert fingerprint(fit_mle(data, np.ones(300))) == expected


@pytest.mark.parametrize("d", [1, 3])
def test_fitted_datasets_pickle_and_copy_without_the_workspace(d):
    data = rare_data(400, d)
    sub = data.take(np.arange(0, 400, 2))
    fits = [fingerprint(fit_mle(target, np.ones(target.n))) for target in (data, sub)]
    assert data._workspace.buf is not None
    for target, fit in zip((data, sub), fits):
        for clone in (pickle.loads(pickle.dumps(target)), copy.deepcopy(target)):
            assert "_workspace" not in clone.__dict__
            for name in ("x", "y", "zt"):
                assert_array_equal(getattr(clone, name), getattr(target, name))
            assert (clone.n1, clone.n0) == (target.n1, target.n0)
            assert fingerprint(fit_mle(clone, np.ones(clone.n))) == fit
            assert clone._workspace is not target._workspace


def test_repeat_fit_allocates_no_length_n_temporary():
    n = 100_000
    data = rare_data(n, 1)
    w = np.random.default_rng(3).uniform(0.5, 1.5, n)
    fit_mle(data, w)  # the first fit allocates zt and the workspace
    tracemalloc.start()
    try:
        fit_mle(data, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n

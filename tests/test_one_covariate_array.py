"""A Dataset holds its covariates once, as the z' = [1; x'] every fit reads.

Every way of making a dataset builds zt in C order and finds the case rows
then; x is a view of zt, so nothing is built later and the caller's arrays
are not kept.  The plug-in covariance reads x in C-ordered row blocks, so
its bits do not depend on that view's layout.
"""

import copy
import pickle

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rarelogit import (
    Coefficients,
    Dataset,
    EstimatorFamily,
    GaussianLaw,
    covariance,
    generate_conditional,
    generate_marginal,
    substream,
)
from rarelogit.cli import load_dataset, save_dataset


def covariates(order="C", dtype=np.float64, n=300, d=3):
    x = substream(5).standard_normal((n, d)) * 3
    return np.asarray(x.astype(dtype), order=order)


def labels(dtype, n=300):
    return (substream(6).random(n) < 0.2).astype(dtype)


def constructed():
    for order, dtype in (("C", np.float64), ("F", np.float64), ("C", np.int64)):
        for label_dtype in (np.int64, np.float64, bool):
            yield f"{order}-{np.dtype(dtype).name}-x, {np.dtype(label_dtype).name} y", \
                Dataset(x=covariates(order, dtype), y=labels(label_dtype))


def made(tmp_path):
    yield from constructed()
    yield "generate_marginal", generate_marginal(
        400, Coefficients(-2.0, [1.0, -0.5, 0.25]), GaussianLaw.standard(3), substream(7)
    )
    yield "generate_conditional", generate_conditional(400, 0.2, 1.0, 0.0, 1.0, substream(8))[0]
    parent = Dataset(x=covariates(), y=labels(np.int64))
    yield "take", parent.take(substream(9).integers(0, parent.n, 500))
    path = tmp_path / "data.csv"
    save_dataset(str(path), parent)
    yield "load_dataset", load_dataset(str(path))


def test_every_way_of_making_a_dataset_holds_one_covariate_array(tmp_path):
    for name, data in made(tmp_path):
        assert np.shares_memory(data.x, data.zt), name
        assert data.zt.flags.c_contiguous and data.zt.dtype == np.float64, name
        assert data.zt.shape == (data.d + 1, data.n), name
        assert_array_equal(data.zt[0], np.ones(data.n))
        assert_array_equal(data._cases, np.flatnonzero(data.y))
        assert data.y.dtype == np.int64, name
        assert (data.n1, data.n0) == (int(data.y.sum()), int(data.n - data.y.sum())), name
        for clone in (pickle.loads(pickle.dumps(data)), copy.deepcopy(data)):
            assert np.shares_memory(clone.x, clone.zt), name
            assert_array_equal(clone.zt, data.zt)


@pytest.mark.parametrize("order", ["C", "F"])
def test_writing_to_the_callers_arrays_changes_nothing(order):
    x, y = covariates(order), labels(np.int64)
    data = Dataset(x=x, y=y)
    zt, cases = data.zt.copy(), data._cases.copy()
    x[0, 0] = 99.0
    y[:] = 1 - y
    assert_array_equal(data.zt, zt)
    assert_array_equal(data.x, covariates())
    assert_array_equal(data.y, labels(np.int64))
    assert_array_equal(data._cases, cases)


def test_the_plug_in_reads_the_view_as_its_c_ordered_copy():
    data = Dataset(x=covariates(n=20_000), y=labels(np.int64, 20_000))
    beta = np.array([0.3, -0.2, 0.1])
    got = covariance(EstimatorFamily.OVER_BIAS_CORRECTED, data.x, beta, c_o=0.1, lam=2.0).v
    want = covariance(EstimatorFamily.OVER_BIAS_CORRECTED, np.ascontiguousarray(data.x), beta, c_o=0.1, lam=2.0).v
    assert got.tobytes() == want.tobytes()

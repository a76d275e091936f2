"""Weights built from the case rows are the n-row formulas' bits.

A Dataset finds its case rows once, and the kernel's w * y, the weighted
families' counts / pi(y), the over-sampling counts y v + 1 and the fit's
one-scan weight check are built from them or from one min and one max.
These properties compare each with the n-row formula it replaced, kept in
_oracles, bit for bit, and the weight check's messages with the two-pass
check's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rarelogit import (
    Coefficients,
    Dataset,
    DesignKind,
    EstimatorFamily,
    EstimatorKind,
    GaussianLaw,
    RareLogitError,
    SampleDesign,
    estimators,
    fit_estimator,
    fit_mle,
    generate_conditional,
    generate_marginal,
    log_likelihood,
    model,
    oversample,
    substream,
)

from _oracles import (
    inclusion_divided_direct,
    oversample_counts_direct,
    weight_check_message,
    weighted_labels_direct,
)

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 600)
# the case share, from none to all
case_rates = st.sampled_from([0.0, 0.005, 0.1, 0.5, 1.0])
UNDER_RATES = (0.005, 1.0)
OVER_RATES = (0.0, 53.6)


def labelled(seed, n, case_rate, d=1):
    rng = np.random.default_rng(seed)
    return Dataset(x=rng.standard_normal((n, d)), y=(rng.random(n) < case_rate).astype(np.int64)), rng


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def fingerprint(fit):
    return (fit.theta.as_vector().tobytes(), fit.neg_hessian.tobytes(), fit.grad_max_norm,
            fit.iterations, fit.evaluations, fit.stop_reason, fit.pilot_iterations)


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates, counts=st.booleans())
def test_kernel_weights_times_labels_are_the_label_products(seed, n, case_rate, counts):
    data, rng = labelled(seed, n, case_rate)
    sub = data.take(np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)))
    # the parent, its subset and the parent again share one buffer, so each
    # kernel must overwrite every row the one before it wrote
    for target in (data, sub, data):
        if counts:
            w = target.y * rng.poisson(3.0, target.n) + rng.integers(0, 2, target.n)
        else:
            w = rng.uniform(0.0, 2.0, target.n)
        scale = max(w.max(), 1)
        kernel = model._Kernel(target, w, scale)
        assert_array_equal(bits(kernel.w), bits(np.divide(w, scale)))
        assert_array_equal(bits(kernel.wy), bits(weighted_labels_direct(w, target.y, scale)))


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates)
def test_case_rows_are_the_positive_labels(seed, n, case_rate):
    data, rng = labelled(seed, n, case_rate)
    sub = data.take(rng.integers(0, n, rng.integers(1, 2 * n + 1)))
    for target in (data, sub):
        assert_array_equal(target._cases, np.flatnonzero(target.y))
        assert target._cases.size == target.n1


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates)
def test_inverse_probability_weights_are_counts_over_pi(seed, n, case_rate):
    data, rng = labelled(seed, n, case_rate)
    for kind, rates in ((DesignKind.UNDERSAMPLE, UNDER_RATES), (DesignKind.OVERSAMPLE, OVER_RATES)):
        for rate in rates:
            if kind is DesignKind.UNDERSAMPLE:
                design = SampleDesign(kind, rate, rng.random(n) < 0.5)
            else:
                design = oversample(data, rate, rng)
            used, selected = design.select(data)
            drawn = rng.integers(1, 60, used.n)
            for counts in (selected, drawn, drawn * 0.75, drawn.astype(np.float32)):
                kept = counts.copy()
                got = kind.divide_by_inclusion(rate, used, counts)
                assert got.dtype == np.float64
                want = inclusion_divided_direct(kind.value, rate, counts, used.y)
                assert_array_equal(bits(got), bits(want))
                assert_array_equal(counts, kept)  # the division left the counts alone
                assert counts.dtype == kept.dtype


@PROPERTY
@given(seed=seeds, n=sizes, case_rate=case_rates, rate=st.sampled_from(OVER_RATES + (3.48,)))
def test_oversample_counts_are_labels_times_draws_plus_one(seed, n, case_rate, rate):
    data, _ = labelled(seed, n, case_rate)
    got = oversample(data, rate, substream(seed, 1)).counts
    draws = substream(seed, 1).poisson(lam=rate, size=n)
    want = oversample_counts_direct(data.y, draws)
    assert got.dtype == want.dtype
    assert_array_equal(got, want)


WEIGHTED = [(EstimatorFamily.UNDER_WEIGHTED, rate) for rate in UNDER_RATES] + [
    (EstimatorFamily.OVER_WEIGHTED, rate) for rate in OVER_RATES
]


@pytest.mark.parametrize("family, rate", WEIGHTED, ids=lambda v: getattr(v, "value", v))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=seeds)
def test_weighted_fits_are_fits_on_counts_over_pi(family, rate, seed):
    rng = np.random.default_rng(seed)
    n = 400
    x = rng.standard_normal((n, 2))
    y = (rng.random(n) < 1 / (1 + np.exp(2.0 - x @ [1.0, -0.5]))).astype(np.int64)
    data = Dataset(x=x, y=y)
    kind = EstimatorKind(family, rate)
    design = estimators.realize_design(kind, data, rng)
    used, counts = design.select(data)
    direct = inclusion_divided_direct(design.kind.value, rate, counts, used.y)
    fresh = Dataset(x=used.x.copy(), y=used.y.copy())
    try:
        want = fingerprint(fit_mle(fresh, direct))
    except RareLogitError:
        with pytest.raises(RareLogitError):
            fit_estimator(kind, data, design)
        return
    assert fingerprint(fit_estimator(kind, data, design)) == want


@PROPERTY
@given(seed=seeds, n=st.integers(20, 400), counts=st.booleans(), zeros=st.sampled_from([0.0, 0.3, 0.9]))
def test_zero_weight_drop_fits_the_positive_rows(seed, n, counts, zeros):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    y = (rng.random(n) < 1 / (1 + np.exp(1.0 - x[:, 0]))).astype(np.int64)
    w = rng.poisson(2.0, n) + 1 if counts else rng.uniform(0.1, 2.0, n)
    w[rng.random(n) < zeros] = 0
    active = np.flatnonzero(w)
    outcomes = []
    for data, weights in ((Dataset(x=x, y=y), w), (Dataset(x=x[active], y=y[active]), w[active])):
        try:
            outcomes.append(fingerprint(fit_mle(data, weights)))
        except (RareLogitError, ValueError) as err:
            outcomes.append(type(err))
    if active.size == 0:
        # no rows left: the drop reports one class, as the old two comparisons did
        assert outcomes[0] is model.AllOneClassError
    else:
        assert outcomes[0] == outcomes[1]


BAD_VALUES = {
    "nan": [np.nan],
    "inf": [np.inf],
    "-inf": [-np.inf],
    "negative": [-2.0],
    "nan-and-negative": [np.nan, -2.0],
    "negative-and-nan": [-2.0, np.nan],
    "inf-and-negative": [-2.0, np.inf],
    "negative-zero": [-0.0],
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=seeds, n=st.integers(2, 50))
def test_weight_check_gives_the_two_pass_message(case, dtype, seed, n):
    values = BAD_VALUES[case]
    if np.issubdtype(dtype, np.integer) and not all(np.isfinite(values)):
        return  # integer weights hold no nan or infinity
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.standard_normal((n, 1)), y=np.arange(n) % 2)
    w = rng.uniform(0.5, 2.0, n).astype(dtype)
    w[rng.choice(n, size=len(values), replace=False)] = values
    message = weight_check_message(w)
    for call in (lambda: fit_mle(data, w), lambda: log_likelihood(data, w, Coefficients(0.0, [0.0]))):
        if message is None:
            try:
                call()
            except RareLogitError:
                pass  # the weights passed the check
        else:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


def test_drawn_datasets_equal_checked_ones():
    drawn = [
        generate_marginal(500, Coefficients(-2.0, [1.0, -0.5]), GaussianLaw.standard(2), substream(3, 1)),
        generate_conditional(500, 0.2, 1.0, 0.0, 1.0, substream(3, 2))[0],
    ]
    for data in drawn:
        checked = Dataset(x=data.x, y=data.y)
        for name in ("x", "y", "zt", "_cases"):
            got, want = getattr(data, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.flags.c_contiguous == want.flags.c_contiguous
            assert_array_equal(got, want)
        assert (data.n1, data.n0) == (checked.n1, checked.n0)
        assert type(data.n1) is int and type(data.n0) is int

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rarelogit import (
    Dataset,
    DesignKind,
    EstimatorFamily,
    EstimatorKind,
    NoControlsSelectedError,
    SampleDesign,
    fit_estimator,
    fit_mle,
    full_mle,
    over_bias_corrected,
    over_weighted,
    oversample,
    realize_design,
    substream,
    under_bias_corrected,
    under_weighted,
    undersample,
)


def simulated_data(seed=0, n=400, rate=0.2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    y = (rng.random(n) < rate).astype(int)
    y[:2] = [1, 0]  # guarantee both classes
    return Dataset(x=x, y=y)


def assert_fits_identical(a, b):
    assert_array_equal(a.theta.as_vector(), b.theta.as_vector())
    assert a.converged == b.converged
    assert a.iterations == b.iterations
    assert a.grad_max_norm == b.grad_max_norm
    assert_array_equal(a.neg_hessian, b.neg_hessian)


class TestDegenerationIdentities:
    def test_pi0_one_matches_full(self):
        data = simulated_data(1)
        design = undersample(data, 1.0, substream(10))
        full = full_mle(data)
        assert_fits_identical(under_weighted(data, design), full)
        assert_fits_identical(under_bias_corrected(data, design), full)

    def test_lambda_zero_matches_full(self):
        data = simulated_data(2)
        design = oversample(data, 0.0, substream(11))
        full = full_mle(data)
        assert_fits_identical(over_weighted(data, design), full)
        assert_fits_identical(over_bias_corrected(data, design), full)


class TestUnderSampling:
    def test_dropped_rows_have_no_influence(self):
        data = simulated_data(3, n=200, rate=0.3)
        design = undersample(data, 0.4, substream(12))
        base_w = under_weighted(data, design)
        base_bc = under_bias_corrected(data, design)

        perturbed = data.x.copy()
        dropped = design.indicators == 0
        perturbed[dropped] += 1e6
        data2 = Dataset(x=perturbed, y=data.y)
        assert_fits_identical(under_weighted(data2, design), base_w)
        assert_fits_identical(under_bias_corrected(data2, design), base_bc)

    def test_bias_correction_is_exact_intercept_shift(self):
        data = simulated_data(4, n=500, rate=0.15)
        pi0 = 0.25
        design = undersample(data, pi0, substream(13))
        corrected = under_bias_corrected(data, design)

        mask = design.indicators == 1
        sub = Dataset(x=data.x[mask], y=data.y[mask])
        uncorrected = fit_mle(sub, np.ones(sub.n))
        assert corrected.theta.alpha == uncorrected.theta.alpha + math.log(pi0)
        assert_array_equal(corrected.theta.beta, uncorrected.theta.beta)

    def test_correction_arithmetic_values(self):
        # the exact shift values for two documented scenarios
        assert -1.2 + math.log(0.05) == pytest.approx(-4.195732273553991, rel=1e-13)
        assert -2.0 - math.log1p(6.39) == pytest.approx(-4.0001277349601104, rel=1e-13)

    def test_weighted_uses_inverse_probability_weights(self):
        data = simulated_data(5, n=300, rate=0.25)
        design = undersample(data, 0.3, substream(14))
        mask = design.indicators == 1
        sub = Dataset(x=data.x[mask], y=data.y[mask])
        direct = fit_mle(sub, 1.0 / np.where(sub.y == 1, 1.0, 0.3))
        assert_fits_identical(under_weighted(data, design), direct)

    def test_no_controls_selected(self):
        data = Dataset(x=np.zeros((4, 1)), y=[1, 1, 1, 0])
        design = SampleDesign(
            kind=DesignKind.UNDERSAMPLE,
            rate=0.01,
            indicators=np.array([1, 1, 1, 0]),
        )
        with pytest.raises(NoControlsSelectedError):
            under_weighted(data, design)
        with pytest.raises(NoControlsSelectedError):
            under_bias_corrected(data, design)

    def test_design_kind_checked(self):
        data = simulated_data(6)
        design = oversample(data, 1.0, substream(15))
        with pytest.raises(ValueError):
            under_weighted(data, design)


class TestOverSampling:
    def test_weighted_matches_manual_weights(self):
        data = simulated_data(7, n=300, rate=0.2)
        lam = 2.0
        design = oversample(data, lam, substream(16))
        direct = fit_mle(data, design.indicators / np.where(data.y == 1, 3.0, 1.0))
        assert_fits_identical(over_weighted(data, design), direct)

    def test_case_without_extra_copies_gets_downweighted(self):
        # tau = 1 for a case means weight 1/(1+lam) < 1 in the weighted fit
        lam = 2.0
        y = np.array([1, 1, 0, 0])
        design = SampleDesign(
            kind=DesignKind.OVERSAMPLE,
            rate=lam,
            indicators=np.array([1, 4, 1, 1]),
        )
        weights = design.indicators / design.kind.inclusion_weight(design.rate, y)
        assert weights[0] == pytest.approx(1.0 / 3.0)
        assert weights[0] < 1.0

    def test_bias_correction_is_exact_intercept_shift(self):
        data = simulated_data(8, n=400, rate=0.2)
        lam = 6.39
        design = oversample(data, lam, substream(17))
        corrected = over_bias_corrected(data, design)
        uncorrected = fit_mle(data, design.indicators.astype(float))
        assert corrected.theta.alpha == uncorrected.theta.alpha - math.log1p(lam)
        assert_array_equal(corrected.theta.beta, uncorrected.theta.beta)

    def test_design_kind_checked(self):
        data = simulated_data(9)
        design = undersample(data, 0.5, substream(18))
        with pytest.raises(ValueError):
            over_weighted(data, design)

    def test_repeated_calls_are_deterministic(self):
        data = simulated_data(10, n=250)
        design = oversample(data, 1.5, substream(19))
        assert_fits_identical(
            over_weighted(data, design), over_weighted(data, design)
        )


class TestEstimatorKind:
    def test_full_takes_no_rate(self):
        kind = EstimatorKind(EstimatorFamily.FULL)
        assert kind.rate is None
        with pytest.raises(ValueError):
            EstimatorKind(EstimatorFamily.FULL, rate=0.5)

    def test_rates_required_and_ranged(self):
        with pytest.raises(ValueError):
            EstimatorKind(EstimatorFamily.UNDER_WEIGHTED)
        with pytest.raises(ValueError):
            EstimatorKind(EstimatorFamily.UNDER_WEIGHTED, rate=0.0)
        with pytest.raises(ValueError):
            EstimatorKind(EstimatorFamily.OVER_WEIGHTED, rate=-1.0)
        assert EstimatorKind(EstimatorFamily.OVER_WEIGHTED, rate=0.0).rate == 0.0

    def test_realize_design_dispatch(self):
        data = simulated_data(11)
        assert realize_design(EstimatorKind(EstimatorFamily.FULL), data, substream(0)) is None
        under = realize_design(
            EstimatorKind(EstimatorFamily.UNDER_BIAS_CORRECTED, 0.5), data, substream(0)
        )
        assert under.kind is DesignKind.UNDERSAMPLE
        over = realize_design(
            EstimatorKind(EstimatorFamily.OVER_WEIGHTED, 1.0), data, substream(0)
        )
        assert over.kind is DesignKind.OVERSAMPLE

    @pytest.mark.parametrize("family", [f for f in EstimatorFamily if f.design_kind is not None])
    def test_design_must_be_given_and_fit_the_data(self, family):
        data = simulated_data(12)
        kind = EstimatorKind(family, 0.5)
        with pytest.raises(ValueError, match=f"{family.value} requires a realized design"):
            fit_estimator(kind, data)
        design = realize_design(kind, data.take(np.arange(300)), substream(3))
        with pytest.raises(ValueError, match="design and dataset lengths differ"):
            fit_estimator(kind, data, design)

    @pytest.mark.parametrize("family", [f for f in EstimatorFamily if f.design_kind is not None])
    def test_design_rate_must_be_the_kinds(self, family):
        # a design drawn at another rate used to be fitted at the design's rate
        data = simulated_data(12)
        design = realize_design(EstimatorKind(family, 0.1), data, substream(3))
        with pytest.raises(ValueError, match="at rate 0.5 was given a design drawn at 0.1"):
            fit_estimator(EstimatorKind(family, 0.5), data, design)

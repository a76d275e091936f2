"""Tests of rarelogit.estimators: the five estimators as weighted fits plus an
intercept shift, and the binding of a sampling design to its dataset.

Each section after the first opens with a comment that says what it pins.
"""

import copy
import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rarelogit import (
    ConditionalGaussianDesign,
    Dataset,
    DesignKind,
    EstimatorFamily,
    EstimatorKind,
    ExperimentConfig,
    NoControlsSelectedError,
    SampleDesign,
    fit_estimator,
    fit_mle,
    full_mle,
    over_bias_corrected,
    over_weighted,
    oversample,
    realize_design,
    run_experiment,
    simulation,
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
        design2 = SampleDesign(data2, design.kind, design.rate, design.indicators)
        assert_fits_identical(under_weighted(data2, design2), base_w)
        assert_fits_identical(under_bias_corrected(data2, design2), base_bc)

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
            data=data,
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
            data=Dataset(x=np.zeros((4, 1)), y=y),
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
        with pytest.raises(ValueError, match=f"{family.value} was given a design drawn on another dataset"):
            fit_estimator(kind, data, design)

    @pytest.mark.parametrize("family", [f for f in EstimatorFamily if f.design_kind is not None])
    def test_design_rate_must_be_the_kinds(self, family):
        # a design drawn at another rate used to be fitted at the design's rate
        data = simulated_data(12)
        design = realize_design(EstimatorKind(family, 0.1), data, substream(3))
        with pytest.raises(ValueError, match="at rate 0.5 was given a design drawn at 0.1"):
            fit_estimator(EstimatorKind(family, 0.5), data, design)


# ----------------------------------------------------------------------------
# A realized sampling design belongs to the dataset it was drawn on.
#
# The weights and the intercept shift of a design hold only on the rows
# whose labels drew it, so fit_estimator rejects a design drawn on any other
# dataset, even one of the same length or an equal copy.  A design does not
# change after it is made, so the helper thread that draws it and the main
# thread that fits it share it as it is.
# ----------------------------------------------------------------------------

F = EstimatorFamily
DESIGNED = [
    EstimatorKind(F.UNDER_WEIGHTED, 0.1),
    EstimatorKind(F.UNDER_BIAS_CORRECTED, 0.1),
    EstimatorKind(F.OVER_WEIGHTED, 5.0),
    EstimatorKind(F.OVER_BIAS_CORRECTED, 5.0),
]


def rare_data(seed, n, beta=(1.0,)):
    """n rows of standard normal covariates with labels at alpha = -4."""
    rng = substream(seed)
    x = rng.standard_normal((n, len(beta)))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(4.0 - x @ np.array(beta)))).astype(np.int64)
    return Dataset(x=x, y=y)


@pytest.mark.parametrize("kind", DESIGNED, ids=lambda kind: kind.tag.value)
def test_a_design_fits_only_the_dataset_it_was_drawn_on(kind):
    # another dataset of the same length used to be fitted silently: under-bc
    # at pi0 = 0.1 gave alpha = -6.1 where the dataset's own design gives -4.1
    data = rare_data(1, 20_000)
    design = realize_design(kind, data, substream(3))
    assert fit_estimator(kind, data, design).converged
    for stranger in (rare_data(2, 20_000), copy.copy(data)):
        with pytest.raises(ValueError, match=f"{kind.tag.value} was given a design drawn on another dataset"):
            fit_estimator(kind, stranger, design)


def test_the_constructor_binds_the_design_to_its_dataset():
    data = rare_data(1, 50)
    over = SampleDesign(data, DesignKind.OVERSAMPLE, 2.0, np.ones(50, dtype=np.int64))
    assert over.parent is data and over.data is data
    under = SampleDesign(data, DesignKind.UNDERSAMPLE, 0.5, np.arange(50) % 2)
    assert under.parent is data
    assert_array_equal(under.data.zt, data.zt[:, 1::2])
    assert_array_equal(under.data.y, data.y[1::2])
    with pytest.raises(ValueError, match="indicators must have one count per row: got 49 for 50 rows"):
        SampleDesign(data, DesignKind.OVERSAMPLE, 2.0, np.ones(49, dtype=np.int64))


def test_designs_do_not_change_while_the_helper_and_main_threads_share_them(monkeypatch):
    made = []
    realize = simulation.realize_design

    def recording(kind, data, rng):
        design = realize(kind, data, rng)
        held = {name: (value, copy.deepcopy(value)) for name, value in vars(design).items()}
        made.append((threading.get_ident(), design, held))
        return design

    monkeypatch.setattr(simulation, "realize_design", recording)
    U, B, W, O = F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED, F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED
    config = ExperimentConfig(
        design=ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=0.1),
        n=3_000,
        reps=2,
        estimators=(EstimatorKind(F.FULL), *(EstimatorKind(f, 0.3) for f in (U, B)),
                    *(EstimatorKind(f, 2.0) for f in (W, O))),
        base_seed=4,
    )
    assert all(entry.failed == 0 for entry in run_experiment(config).entries)
    assert len(made) == 4  # one under- and one over-sampling design per replication
    for thread, design, held in made:
        assert thread != threading.get_ident()  # drawn on the helper, fitted here
        assert vars(design).keys() == held.keys()
        for name, (value, snapshot) in held.items():
            assert vars(design)[name] is value
            if isinstance(value, np.ndarray):
                assert_array_equal(value, snapshot)
        with pytest.raises(dataclasses.FrozenInstanceError):
            design.rows = None


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_design_that_keeps_every_row_fits_its_parent_in_place():
    # pi0 = 1 used to gather a full copy of the data: 14.8 against 5.6 MB
    data = rare_data(1, 200_000, beta=(1.0, -0.5, 0.25))
    full, kind = EstimatorKind(F.FULL), EstimatorKind(F.UNDER_WEIGHTED, 1.0)
    design = realize_design(kind, data, substream(5))
    assert_array_equal(fit_estimator(kind, data, design).theta.as_vector(),
                       fit_estimator(full, data).theta.as_vector())
    full_peak = _peak(lambda: fit_estimator(full, data))
    design_peak = _peak(lambda: fit_estimator(kind, data, realize_design(kind, data, substream(5))))
    # the design adds its row indices and nothing else of length n; 16 KiB
    # covers the Python objects of the design and its stream, against 1.6 MB
    # for one length-n vector
    assert design_peak <= full_peak + design.rows.nbytes + 16 * 1024
    assert design.data is data

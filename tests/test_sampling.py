import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import stats

from rarelogit import (
    Dataset,
    DesignKind,
    SampleDesign,
    effective_sample_size,
    oversample,
    substream,
    undersample,
)


def toy_data(n1=5, n0=15):
    y = np.array([1] * n1 + [0] * n0)
    x = np.arange(n1 + n0, dtype=float)[:, None]
    return Dataset(x=x, y=y)


class TestSubstream:
    def test_deterministic(self):
        a = substream(123, 4, 5).random(8)
        b = substream(123, 4, 5).random(8)
        assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = substream(123, 4).random(8)
        b = substream(123, 5).random(8)
        c = substream(124, 4).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_numpy_integers_give_the_same_stream(self):
        a = substream(np.int64(123), np.uint8(4), np.int32(5)).random(8)
        assert_array_equal(a, substream(123, 4, 5).random(8))

    # a float or bool seed used to run as its integer part, and a negative
    # one to fail with numpy's unnamed "expected non-negative integer"
    @pytest.mark.parametrize(
        "seed, path, message",
        [
            (1.7, (), "base_seed must be an integer, got 1.7"),
            (True, (), "base_seed must be an integer, got True"),
            (-1, (), "base_seed must be >= 0, got -1"),
            (0, (2, 0.5), r"path\[1\] must be an integer, got 0.5"),
            (0, (False,), r"path\[0\] must be an integer, got False"),
            (0, (3, -2), r"path\[1\] must be >= 0, got -2"),
        ],
        ids=["float-seed", "bool-seed", "negative-seed", "float-entry", "bool-entry", "negative-entry"],
    )
    def test_malformed_seed_or_path_rejected(self, seed, path, message):
        with pytest.raises(ValueError, match=message):
            substream(seed, *path)


class TestUndersample:
    def test_pi0_one_keeps_everything(self):
        data = toy_data()
        design = undersample(data, 1.0, substream(0))
        assert_array_equal(design.indicators, np.ones(data.n, dtype=int))

    def test_cases_always_kept(self):
        data = toy_data(n1=8, n0=40)
        for seed in range(25):
            design = undersample(data, 0.05, substream(seed))
            assert np.all(design.indicators[data.y == 1] == 1)

    def test_weight_closed_form(self):
        data = toy_data()
        design = undersample(data, 0.3, substream(1))
        expected = np.where(data.y == 1, 1.0, 0.3)
        assert_array_equal(design.kind.inclusion_weight(design.rate, data.y), expected)

    def test_control_count_matches_binomial_mean(self):
        # controls kept ~ Binomial(n0, pi0): mean n0*pi0 = 500
        n0, pi0, draws = 10_000, 0.05, 200
        data = toy_data(n1=1, n0=n0)
        counts = [
            int(undersample(data, pi0, substream(500, s)).indicators[data.y == 0].sum())
            for s in range(draws)
        ]
        band = 4.0 * np.sqrt(n0 * pi0 * (1 - pi0)) / np.sqrt(draws)
        assert abs(np.mean(counts) - n0 * pi0) <= band

    def test_control_count_distribution(self):
        # chi-square goodness of fit of the retained-control count
        n0, pi0, draws = 40, 0.3, 10_000
        data = toy_data(n1=1, n0=n0)
        counts = np.array(
            [
                int(undersample(data, pi0, substream(42, s)).indicators[1:].sum())
                for s in range(draws)
            ]
        )
        support = np.arange(n0 + 1)
        pmf = stats.binom.pmf(support, n0, pi0)
        observed, expected = _pooled_counts(counts, support, pmf, draws)
        p_value = stats.chisquare(observed, expected).pvalue
        assert p_value > 0.001

    def test_invalid_rates(self):
        data = toy_data()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                undersample(data, bad, substream(0))

    def test_determinism_bitwise(self):
        data = toy_data(n1=3, n0=60)
        a = undersample(data, 0.4, substream(9, 1))
        b = undersample(data, 0.4, substream(9, 1))
        assert_array_equal(a.indicators, b.indicators)


class TestOversample:
    def test_lambda_zero_is_identity(self):
        data = toy_data()
        design = oversample(data, 0.0, substream(0))
        assert_array_equal(design.indicators, np.ones(data.n, dtype=int))

    def test_controls_never_replicated(self):
        data = toy_data(n1=6, n0=30)
        for seed in range(25):
            design = oversample(data, 5.0, substream(seed))
            assert np.all(design.indicators[data.y == 0] == 1)
            assert np.all(design.indicators[data.y == 1] >= 1)

    def test_weight_closed_form(self):
        data = toy_data()
        lam = 3.48
        design = oversample(data, lam, substream(2))
        expected = np.where(data.y == 1, 1.0 + lam, 1.0)
        assert_array_equal(design.kind.inclusion_weight(design.rate, data.y), expected)

    def test_extra_copies_match_poisson_moments(self):
        # total extra copies over n1 = 2000 cases: mean and variance n1*lam
        n1, lam, draws = 2000, 3.48, 200
        data = toy_data(n1=n1, n0=1)
        totals = np.array(
            [
                int((oversample(data, lam, substream(77, s)).indicators[data.y == 1] - 1).sum())
                for s in range(draws)
            ]
        )
        target = n1 * lam
        mean_band = 4.0 * np.sqrt(target) / np.sqrt(draws)
        assert abs(totals.mean() - target) <= mean_band
        var_band = 4.0 * target * np.sqrt(2.0 / (draws - 1))
        assert abs(totals.var(ddof=1) - target) <= var_band

    def test_extra_copy_distribution(self):
        # pooled per-case extra copies follow Poisson(lam)
        n1, lam, draws = 20, 2.5, 500
        data = toy_data(n1=n1, n0=1)
        extras = np.concatenate(
            [
                oversample(data, lam, substream(88, s)).indicators[data.y == 1] - 1
                for s in range(draws)
            ]
        )
        support = np.arange(extras.max() + 1)
        pmf = stats.poisson.pmf(support, lam)
        observed, expected = _pooled_counts(extras, support, pmf, extras.size)
        p_value = stats.chisquare(observed, expected).pvalue
        assert p_value > 0.001

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            oversample(toy_data(), -0.5, substream(0))


class TestEffectiveSampleSize:
    def test_degenerate_rates(self):
        data = toy_data()
        assert effective_sample_size(undersample(data, 1.0, substream(0))) == data.n
        assert effective_sample_size(oversample(data, 0.0, substream(0))) == data.n

    def test_undersample_expectation(self):
        n1, n0, pi0 = 400, 99_600, 0.05
        data = toy_data(n1=n1, n0=n0)
        design = undersample(data, pi0, substream(3))
        expected = n1 + pi0 * n0
        band = 5.0 * np.sqrt(n0 * pi0 * (1 - pi0))
        assert abs(effective_sample_size(design) - expected) <= band


class TestSampleDesignValidation:
    def test_undersample_indicator_range(self):
        with pytest.raises(ValueError):
            SampleDesign(
                data=toy_data(1, 1),
                kind=DesignKind.UNDERSAMPLE,
                rate=0.5,
                indicators=np.array([0, 2]),
            )

    def test_oversample_minimum_count(self):
        with pytest.raises(ValueError):
            SampleDesign(
                data=toy_data(1, 1),
                kind=DesignKind.OVERSAMPLE,
                rate=1.0,
                indicators=np.array([0, 1]),
            )

    def test_length_mismatch(self):
        # counts are one flat vector, one entry per row of the dataset
        with pytest.raises(ValueError, match="indicators must be a vector"):
            SampleDesign(
                data=toy_data(1, 1),
                kind=DesignKind.UNDERSAMPLE,
                rate=0.5,
                indicators=np.array([[1, 0], [1, 1]]),
            )

    @pytest.mark.parametrize(
        "kind, counts",
        [
            (DesignKind.OVERSAMPLE, [1.9, 3.7, 1.0]),
            (DesignKind.UNDERSAMPLE, [1.0, 0.5, 0.0]),
            (DesignKind.OVERSAMPLE, [1.0, math.nan, 2.0]),
            (DesignKind.OVERSAMPLE, [1.0, math.inf, 2.0]),
        ],
    )
    def test_fractional_or_nonfinite_counts_rejected(self, kind, counts):
        # checked before the int cast, which would truncate 1.9 to 1 and
        # turn nan into an arbitrary integer with a RuntimeWarning
        rate = 2.0 if kind is DesignKind.OVERSAMPLE else 0.5
        with pytest.raises(ValueError, match="indicators must be finite whole-number counts"):
            SampleDesign(data=toy_data(1, 2), kind=kind, rate=rate, indicators=np.array(counts))


class TestDesignKindRules:
    @pytest.mark.parametrize(
        "kind, rate, message",
        [
            (DesignKind.UNDERSAMPLE, 0.0, "pi0 must be in (0, 1], got 0.0"),
            (DesignKind.UNDERSAMPLE, 1.5, "pi0 must be in (0, 1], got 1.5"),
            (DesignKind.UNDERSAMPLE, math.nan, "pi0 must be in (0, 1], got nan"),
            (DesignKind.OVERSAMPLE, -0.5, "lambda_n must be >= 0, got -0.5"),
            (DesignKind.OVERSAMPLE, math.nan, "lambda_n must be >= 0, got nan"),
            (DesignKind.OVERSAMPLE, math.inf, "lambda_n must be finite, got inf"),
        ],
    )
    def test_check_rate_rejects(self, kind, rate, message):
        with pytest.raises(ValueError) as err:
            kind.check_rate(rate)
        assert str(err.value) == message

    def test_inclusion_weight_is_pi_of_y(self):
        y = np.array([1, 0, 0, 1])
        assert_array_equal(DesignKind.UNDERSAMPLE.inclusion_weight(0.2, y), [1.0, 0.2, 0.2, 1.0])
        assert_array_equal(DesignKind.OVERSAMPLE.inclusion_weight(3.0, y), [4.0, 1.0, 1.0, 4.0])
        # the degenerate rates weigh every row by one
        assert_array_equal(DesignKind.UNDERSAMPLE.inclusion_weight(1.0, y), np.ones(4))
        assert_array_equal(DesignKind.OVERSAMPLE.inclusion_weight(0.0, y), np.ones(4))

    def test_intercept_shift_is_log_pi_ratio(self):
        assert DesignKind.UNDERSAMPLE.intercept_shift(0.05) == math.log(0.05)
        assert DesignKind.OVERSAMPLE.intercept_shift(6.39) == -math.log1p(6.39)
        assert DesignKind.UNDERSAMPLE.intercept_shift(1.0) == 0.0
        assert DesignKind.OVERSAMPLE.intercept_shift(0.0) == 0.0


def _pooled_counts(values, support, pmf, total):
    """Bin observed counts against a pmf, pooling cells to expected >= 5."""
    observed = np.array([(values == k).sum() for k in support], dtype=float)
    tail_obs = float((values > support[-1]).sum())
    expected = pmf * total
    tail_exp = float(total * (1.0 - pmf.sum()))
    obs_pooled, exp_pooled = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_pooled.append(acc_o)
            exp_pooled.append(acc_e)
            acc_o = acc_e = 0.0
    obs_pooled.append(acc_o + tail_obs)
    exp_pooled.append(acc_e + tail_exp)
    if len(exp_pooled) > 1 and exp_pooled[-1] < 5.0:
        exp_pooled[-2] += exp_pooled.pop()
        obs_pooled[-2] += obs_pooled.pop()
    obs = np.array(obs_pooled)
    exp = np.array(exp_pooled)
    # chisquare requires matching totals; pooling guarantees it up to rounding
    exp *= obs.sum() / exp.sum()
    return obs, exp

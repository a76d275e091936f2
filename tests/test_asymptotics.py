import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rarelogit import (
    EstimatorFamily,
    GaussianLaw,
    SCALING_LABEL,
    SingularMomentMatrixError,
    covariance,
    limit_constants,
    loewner_ge,
    moment_matrix,
    oversampling_variance_factor,
    weighted_moment_inequality_check,
    substream,
    v_full,
    v_over_bc,
    v_over_weighted,
    v_under_bc,
    v_under_weighted,
)

from rarelogit.model import BLOCK_ROWS

from _oracles import gauss_moment_matrix, plug_in_direct, sandwich_direct

BETA = np.array([1.0])
SQRT_E = np.exp(0.5)


@pytest.fixture(scope="module")
def gauss_sample():
    return substream(314159).standard_normal(1_000_000)[:, None]


class TestMomentMatrix:
    def test_beta_zero_plain_is_second_moment(self):
        xs = np.array([[1.0], [2.0], [-1.0]])
        mat, e_mean = moment_matrix(xs, [0.0], "plain")
        z = np.hstack([np.ones((3, 1)), xs])
        assert_allclose(mat, z.T @ z / 3, rtol=1e-15)
        assert e_mean == 1.0

    def test_constant_zero_transforms_collapse(self):
        xs = substream(1).standard_normal(500)[:, None]
        plain, _ = moment_matrix(xs, BETA, "plain")
        for transform in ("times", "over", "over_sq"):
            other, _ = moment_matrix(xs, BETA, transform, 0.0)
            assert_array_equal(other, plain)

    def test_gaussian_moments_match_analytic(self, gauss_sample):
        # E e^x = sqrt(e), E x e^x = sqrt(e), E x^2 e^x = 2 sqrt(e) for N(0,1)
        mat, e_mean = moment_matrix(gauss_sample, BETA, "plain")
        target = SQRT_E * np.array([[1.0, 1.0], [1.0, 2.0]])
        assert_allclose(mat, target, rtol=0.01)
        assert e_mean == pytest.approx(SQRT_E, rel=0.01)

    @pytest.mark.parametrize("transform", ["plain", "times", "over", "over_sq"])
    def test_plugin_mechanics_exact(self, transform):
        # on a tiny sample the plug-in average must equal the hand-rolled one
        xs = np.array([[-1.5], [0.2], [0.4], [2.0], [-0.3]])
        c = 0.7
        mat, e_mean = moment_matrix(xs, BETA, transform, c)
        e = np.exp(xs[:, 0])
        wgt = {
            "plain": e,
            "times": e * (1 + c * e),
            "over": e / (1 + c * e),
            "over_sq": e / (1 + c * e) ** 2,
        }[transform]
        z = np.hstack([np.ones((5, 1)), xs])
        assert_allclose(mat, (z * wgt[:, None]).T @ z / 5, rtol=1e-14)
        assert e_mean == pytest.approx(e.mean(), rel=1e-15)

    @pytest.mark.parametrize(
        "transform,constant",
        [("over", 1.0), ("over_sq", 0.5)],
    )
    def test_plugin_matches_quadrature(self, gauss_sample, transform, constant):
        # bounded integrands: 1% is many standard errors at m = 1e6
        mat, _ = moment_matrix(gauss_sample, BETA, transform, constant)
        target = gauss_moment_matrix(1.0, transform, constant)
        assert_allclose(mat, target, rtol=0.01)

    def test_times_transform_matches_quadrature(self, gauss_sample):
        # the e^{2x} moments are heavy-tailed, so compare within four
        # standard errors estimated from the sample itself
        c = 1.0
        mat, _ = moment_matrix(gauss_sample, BETA, "times", c)
        target = gauss_moment_matrix(1.0, "times", c)
        x = gauss_sample[:, 0]
        e = np.exp(x)
        wgt = e * (1 + c * e)
        m = x.size
        for i, j, zz in [(0, 0, np.ones(m)), (0, 1, x), (1, 1, x * x)]:
            se = np.std(wgt * zz) / np.sqrt(m)
            assert abs(mat[i, j] - target[i, j]) <= 4.0 * se

    def test_quadrature_oracle_self_check(self):
        # the times-transform has a closed form: E e^x zz' + c E e^{2x} zz'
        quad_mat = gauss_moment_matrix(1.0, "times", 1.0)
        e2 = np.exp(2.0)
        target = SQRT_E * np.array([[1.0, 1.0], [1.0, 2.0]]) + e2 * np.array(
            [[1.0, 2.0], [2.0, 5.0]]
        )
        assert_allclose(quad_mat, target, rtol=1e-8)

    def test_overflow_guard(self):
        xs = np.array([[800.0], [1.0], [0.0]])
        with pytest.raises(OverflowError):
            moment_matrix(xs, BETA, "plain")

    @pytest.mark.parametrize(
        "transform, constant", [("times", 1e308), ("over", 1e308), ("over_sq", 1e300)]
    )
    def test_overflowing_integrand_raises(self, transform, constant):
        # 1 + k e overflowing used to turn the "over" weights into zeros, not infs
        xs = np.array([[1.0], [0.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="nonfinite integrand in the plug-in average"):
                moment_matrix(xs, BETA, transform, constant)

    @pytest.mark.parametrize(
        "xs, beta, message",
        [
            # a nan exponent used to pass the guard, since nan > 700 is false
            ([[np.nan], [0.0], [1.0]], [1.0], "covariate sample must be finite"),
            ([[np.inf], [0.0], [1.0]], [1.0], "covariate sample must be finite"),
            ([[1.0], [0.0], [-1.0]], [np.nan], "beta must be finite"),
            ([[1.0], [0.0], [-1.0]], [np.inf], "beta must be finite"),
            ([[1.0, 2.0], [0.0, 1.0], [-1.0, 0.5]], [np.inf, -np.inf], "beta must be finite"),
        ],
        ids=["nan-x", "inf-x", "nan-beta", "inf-beta", "inf-minus-inf"],
    )
    def test_nonfinite_input_is_a_value_error(self, xs, beta, message):
        for compute in (lambda: moment_matrix(xs, beta), lambda: v_full(xs, beta)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    compute()

    def test_finite_overflowing_exponent_stays_an_overflow(self):
        xs = np.array([[1e200], [0.0], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="exponent magnitude exceeds 700"):
                moment_matrix(xs, [1e200], "over", 1.0)

    def test_sample_size_floor(self):
        with pytest.raises(ValueError):
            moment_matrix(np.array([[1.0]]), BETA, "plain")

    def test_negative_constant_rejected(self):
        xs = np.zeros((3, 1))
        with pytest.raises(ValueError):
            moment_matrix(xs, BETA, "times", -1.0)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: moment_matrix(np.zeros((3, 1, 1)), BETA), ValueError, "covariate sample must be an [(]m, d[)] matrix"),
            (lambda: moment_matrix(np.zeros((3, 2)), BETA), ValueError, "beta has shape [(]1,[)], sample has d=2"),
            (lambda: moment_matrix(np.zeros((3, 1)), BETA, "cubed"), ValueError, "unknown transform 'cubed'"),
            # each exp(700) is finite, their sum is not
            (
                lambda: moment_matrix(np.full((20_000, 1), 700.0), BETA),
                OverflowError,
                "nonfinite integrand in the plug-in average",
            ),
            (
                lambda: covariance(EstimatorFamily.OVER_BIAS_CORRECTED, np.zeros((3, 1)), BETA, lam=1.0),
                ValueError,
                "over-bc variance needs c_o",
            ),
            (
                lambda: weighted_moment_inequality_check(np.ones(4), np.ones(3)),
                ValueError,
                "hs must be one scalar per row of vs",
            ),
            # a nan compares as not >= -tol and an inf makes the trace tolerance inf
            (lambda: loewner_ge([[np.nan]], [[1.0]]), ValueError, "matrices must be finite"),
            (lambda: loewner_ge([[np.inf]], [[1.0]]), ValueError, "matrices must be finite"),
            (lambda: loewner_ge([[1.0]], [[-np.inf]], tol=1e-8), ValueError, "matrices must be finite"),
            (lambda: loewner_ge([[1.0]], [[0.0]], tol=np.nan), ValueError, "tol must be finite"),
            (
                lambda: weighted_moment_inequality_check([1.0, np.inf, 2.0], np.ones(3)),
                ValueError,
                "vs must be finite",
            ),
        ],
        ids=[
            "3-d-sample", "beta-length", "transform", "overflowing-mean", "missing-constant", "hs-length",
            "loewner-nan", "loewner-inf", "loewner-inf-given-tol", "loewner-nan-tol", "vs-inf",
        ],
    )
    def test_malformed_arguments_rejected(self, call, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                call()


LAW_3 = GaussianLaw(means=(0.3, -0.5, 1.0), sds=(0.8, 1.3, 0.5))
BETA_3 = (0.6, -0.4, 0.3)
LAM, C, C_O = 2.0, 0.4, 0.9
FACTOR = ((1.0 + LAM) ** 2 + LAM) / (1.0 + LAM) ** 2
# family -> (covariance keywords, then sandwich_direct's bread, meat, k and factor)
FAMILIES = {
    EstimatorFamily.FULL: ({}, ("plain", None, 0.0, 1.0)),
    EstimatorFamily.UNDER_WEIGHTED: ({"c": C}, ("plain", "times", C, 1.0)),
    EstimatorFamily.UNDER_BIAS_CORRECTED: ({"c": C}, ("over", None, C, 1.0)),
    EstimatorFamily.OVER_WEIGHTED: ({"lam": LAM}, ("plain", None, 0.0, FACTOR)),
    EstimatorFamily.OVER_BIAS_CORRECTED: ({"lam": LAM, "c_o": C_O}, ("over", "over_sq", C_O, FACTOR)),
}


def law_sample(m, d, seed=41):
    """m draws of the first d components of LAW_3, and the matching slopes."""
    law = GaussianLaw(means=LAW_3.means[:d], sds=LAW_3.sds[:d])
    return law.sample(m, substream(seed)), np.array(BETA_3[:d])


def law_blocks(law, m, rng):
    """m draws from law, made block by block as `variance` makes them without --xs."""
    return (law.sample(min(BLOCK_ROWS, m - lo), rng) for lo in range(0, m, BLOCK_ROWS))


def assert_close_normwise(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestRowBlocks:
    """The plug-in reads its sample in blocks of at most BLOCK_ROWS rows."""

    @pytest.mark.parametrize("m", [60, BLOCK_ROWS])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_block_is_the_one_shot_formula_bit_for_bit(self, d, m):
        xs, beta = law_sample(m, d)
        for transform in ("plain", "times", "over", "over_sq"):
            mat, e_mean = moment_matrix(xs, beta, transform, 0.7)
            want_mat, want_e = plug_in_direct(xs, beta, transform, 0.7)
            assert_array_equal(mat, want_mat)
            assert e_mean == want_e
        for family, (constants, sandwich) in FAMILIES.items():
            assert_array_equal(covariance(family, xs, beta, **constants).v, sandwich_direct(xs, beta, *sandwich))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_many_blocks_agree_with_the_one_shot_formula(self, d):
        xs, beta = law_sample(5 * BLOCK_ROWS // 2 + 3, d)
        for transform in ("plain", "times", "over", "over_sq"):
            mat, e_mean = moment_matrix(xs, beta, transform, 0.7)
            want_mat, want_e = plug_in_direct(xs, beta, transform, 0.7)
            assert_close_normwise(mat, want_mat, 1e-13)
            assert e_mean == pytest.approx(want_e, rel=1e-13, abs=0.0)
        for family, (constants, sandwich) in FAMILIES.items():
            got = covariance(family, xs, beta, **constants).v
            # inverting the bread scales its relative rounding by up to its condition number
            bread, k = sandwich[0], sandwich[2]
            cond = np.linalg.cond(plug_in_direct(xs, beta, bread, k)[0])
            assert_close_normwise(got, sandwich_direct(xs, beta, *sandwich), 1e-13 * cond)

    def test_law_blocks_match_the_drawn_sample_at_any_size(self):
        # both read the same rows at the same block boundaries
        m = 5 * BLOCK_ROWS // 2
        xs, beta = law_sample(m, 3)
        for family, (constants, _) in FAMILIES.items():
            streamed = covariance(family, law_blocks(LAW_3, m, substream(41)), beta, **constants)
            assert_array_equal(streamed.v, covariance(family, xs, beta, **constants).v)

    @pytest.mark.parametrize(
        "faults, error, message",
        [
            ({BLOCK_ROWS + 5: 800.0}, OverflowError, "exponent magnitude exceeds 700"),
            ({BLOCK_ROWS + 5: np.nan}, ValueError, "covariate sample must be finite"),
            ({BLOCK_ROWS + 5: -np.inf}, ValueError, "covariate sample must be finite"),
            # the first block fails the guard, and a later one decides the error
            ({3: 800.0, 2 * BLOCK_ROWS + 9: np.nan}, ValueError, "covariate sample must be finite"),
        ],
        ids=["late-overflow", "late-nan", "late-inf", "overflow-then-nan"],
    )
    def test_a_fault_in_a_later_block_raises_as_in_the_first(self, faults, error, message):
        xs, _ = law_sample(5 * BLOCK_ROWS // 2, 2)
        for row, value in faults.items():
            xs[row, 0] = value
        for compute in (lambda: moment_matrix(xs, [1.0, 0.5], "over", 1.0), lambda: v_full(xs, [1.0, 0.5])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match=message):
                    compute()

    @pytest.mark.parametrize("rows", [[], [2], [1, 1]], ids=["empty", "one-block", "two-blocks"])
    def test_an_iterator_of_fewer_than_d_plus_one_rows_is_rejected(self, rows):
        # d = 2 needs 3 rows; the pass counts the rows it reads
        blocks = iter([np.ones((r, 2)) for r in rows])
        with pytest.raises(ValueError, match=r"need at least d \+ 1 sample rows"):
            moment_matrix(blocks, [1.0, 0.5])

    def test_a_block_of_the_wrong_width_is_rejected(self):
        xs, beta = law_sample(BLOCK_ROWS + 5, 2)
        blocks = iter([xs[:BLOCK_ROWS], xs[BLOCK_ROWS:, :1]])
        with pytest.raises(ValueError, match=r"beta has shape \(2,\), sample has d=1"):
            v_full(blocks, beta)


class TestVarianceMatrices:
    def test_v_full_gaussian_analytic(self, gauss_sample):
        report = v_full(gauss_sample, BETA)
        assert_allclose(report.v, [[2.0, -1.0], [-1.0, 1.0]], rtol=0.01)
        assert report.kind is EstimatorFamily.FULL
        assert report.scaling == SCALING_LABEL

    def test_v_full_beta_zero(self):
        xs = substream(2).standard_normal(2_000)[:, None]
        report = v_full(xs, [0.0])
        z = np.hstack([np.ones((2_000, 1)), xs])
        assert_allclose(report.v, np.linalg.inv(z.T @ z / 2_000), rtol=1e-9)

    def test_exact_degenerations(self, gauss_sample):
        vf = v_full(gauss_sample, BETA).v
        assert_array_equal(v_under_weighted(gauss_sample, BETA, 0.0).v, vf)
        assert_array_equal(v_under_bc(gauss_sample, BETA, 0.0).v, vf)
        assert_array_equal(v_over_weighted(gauss_sample, BETA, 0.0).v, vf)
        assert_array_equal(v_over_bc(gauss_sample, BETA, 0.0, 0.0).v, vf)

    def test_under_weighted_strictly_larger(self, gauss_sample):
        vf = v_full(gauss_sample, BETA).v
        vw = v_under_weighted(gauss_sample, BETA, 1.0).v
        assert np.min(np.linalg.eigvalsh(vw - vf)) > 0.0

    def test_sandwich_matches_quadrature(self, gauss_sample):
        # rebuild each covariance from quadrature moment matrices; the
        # weighted sandwich carries the heavy-tailed e^{2x} moments, so it
        # gets a wider Monte Carlo band than the bounded-integrand forms
        c = 1.0
        mf = gauss_moment_matrix(1.0, "plain")
        mw = gauss_moment_matrix(1.0, "times", c)
        mbc = gauss_moment_matrix(1.0, "over", c)
        mf_inv = np.linalg.inv(mf)
        vw_quad = SQRT_E * mf_inv @ mw @ mf_inv
        vbc_quad = SQRT_E * np.linalg.inv(mbc)
        assert_allclose(v_under_weighted(gauss_sample, BETA, c).v, vw_quad, rtol=0.12)
        assert_allclose(v_under_bc(gauss_sample, BETA, c).v, vbc_quad, rtol=0.02)

        lam, c_o = 3.48, 0.5
        m1 = gauss_moment_matrix(1.0, "over_sq", c_o)
        m2_inv = np.linalg.inv(gauss_moment_matrix(1.0, "over", c_o))
        factor = ((1 + lam) ** 2 + lam) / (1 + lam) ** 2
        vobc_quad = factor * SQRT_E * m2_inv @ m1 @ m2_inv
        assert_allclose(v_over_bc(gauss_sample, BETA, lam, c_o).v, vobc_quad, rtol=0.02)

    def test_orderings_on_shared_sample(self, gauss_sample):
        vf = v_full(gauss_sample, BETA).v
        for c in (0.0, 0.5, 2.0):
            vw = v_under_weighted(gauss_sample, BETA, c).v
            vbc = v_under_bc(gauss_sample, BETA, c).v
            assert loewner_ge(vw, vf)
            assert loewner_ge(vbc, vf)
            assert loewner_ge(vw, vbc)
        for lam, c_o in ((0.22, 0.1), (3.48, 0.5)):
            vow = v_over_weighted(gauss_sample, BETA, lam).v
            vobc = v_over_bc(gauss_sample, BETA, lam, c_o).v
            assert loewner_ge(vow, vf)
            assert loewner_ge(vobc, vow)

    def test_singular_sample_raises(self):
        xs = np.full((10, 1), 2.0)  # z columns collinear
        with pytest.raises(SingularMomentMatrixError):
            v_full(xs, BETA)

    def test_report_constants(self, gauss_sample):
        rep = v_over_bc(gauss_sample, BETA, 3.48, 0.13)
        assert rep.lam == 3.48
        assert rep.c_o == 0.13
        assert rep.c is None


class TestFactorAndConstants:
    def test_factor_values(self):
        assert oversampling_variance_factor(0.0) == 1.0
        assert oversampling_variance_factor(1.0) == 1.25
        assert oversampling_variance_factor(3.48) == pytest.approx(
            1.1733896683673469, rel=1e-14
        )

    def test_factor_bounds(self):
        lams = np.linspace(0.0, 60.0, 200)
        factors = np.array([oversampling_variance_factor(l) for l in lams])
        assert np.all(factors >= 1.0)
        assert np.all(factors[1:] > 1.0)
        assert oversampling_variance_factor(1e6) < 1.0 + 2e-6

    def test_limit_constants(self):
        c, c_o = limit_constants(-6.0, pi0=0.01, lambda_n=53.6)
        assert c == pytest.approx(0.24787521766663584, rel=1e-14)
        assert c_o == pytest.approx(0.13286111666931681, rel=1e-14)
        assert limit_constants(-6.0, lambda_n=0.0) == (None, 0.0)
        assert limit_constants(-6.0, pi0=1.0)[1] is None

    def test_limit_constant_ranges(self):
        with pytest.raises(ValueError):
            limit_constants(-6.0, pi0=0.0)
        with pytest.raises(ValueError):
            limit_constants(-6.0, pi0=1.5)
        with pytest.raises(ValueError):
            limit_constants(-6.0, lambda_n=-1.0)
        with pytest.raises(ValueError, match="lambda_n must be finite, got inf"):
            limit_constants(-6.0, lambda_n=np.inf)

    @pytest.mark.parametrize(
        "alpha_t, rates, name",
        [
            (800.0, {"pi0": 0.5}, "c"),
            (800.0, {"lambda_n": 0.0}, "c_o"),
            (709.0, {"pi0": 1e-10}, "c"),
            (709.0, {"lambda_n": 1e10}, "c_o"),
        ],
    )
    def test_limit_constant_overflow_is_an_input_error(self, alpha_t, rates, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"limit constant {name} overflows"):
                limit_constants(alpha_t, **rates)

    def test_infinite_constants_rejected(self):
        xs = substream(5).standard_normal((50, 1))
        with pytest.raises(ValueError, match="lam must be finite, got inf"):
            oversampling_variance_factor(np.inf)
        with pytest.raises(ValueError, match="c must be finite, got inf"):
            v_under_bc(xs, BETA, np.inf)
        with pytest.raises(ValueError, match="c_o must be finite, got inf"):
            v_over_bc(xs, BETA, 2.0, np.inf)


class TestLoewnerOrder:
    def test_identity_dominates_zero(self):
        assert loewner_ge(np.eye(3), np.zeros((3, 3)))

    def test_equal_matrices(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert loewner_ge(a, a)

    def test_indefinite_difference(self):
        assert not loewner_ge(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            loewner_ge(bad, np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loewner_ge(np.eye(2), np.eye(3))


class TestProposition1:
    def test_constant_h_is_equality(self):
        vs = substream(5).standard_normal((50, 3))
        assert weighted_moment_inequality_check(vs, np.ones(50))

    def test_random_instances(self):
        rng = substream(6)
        for _ in range(25):
            m = int(rng.integers(10, 200))
            k = int(rng.integers(1, 6))
            vs = rng.standard_normal((m, k))
            hs = np.exp(rng.normal(0.0, 1.0, size=m))
            assert weighted_moment_inequality_check(vs, hs, tol=1e-8)

    def test_certifies_weighted_vs_corrected_ordering(self):
        xs = substream(7).standard_normal(5_000)
        c = 0.7
        e = np.exp(xs)
        z = np.stack([np.ones_like(xs), xs], axis=1)
        vs = np.sqrt(e)[:, None] * z
        hs = 1.0 + c * e
        assert weighted_moment_inequality_check(vs, hs, tol=1e-8)

    def test_nonpositive_h_rejected(self):
        vs = np.ones((4, 2))
        with pytest.raises(ValueError):
            weighted_moment_inequality_check(vs, np.array([1.0, 0.0, 1.0, 1.0]))

    def test_singular_moments_raise(self):
        vs = np.zeros((6, 2))
        with pytest.raises(SingularMomentMatrixError):
            weighted_moment_inequality_check(vs, np.ones(6))

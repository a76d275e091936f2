"""Asymptotic covariance matrices of the rare-events estimators.

All matrices are covariances of sqrt(n1) * (theta_hat - theta_true) in the
rare-events limit and are evaluated by plug-in: expectations over the
covariate law become averages over a covariate sample xs (the dataset's
own covariates, or fresh draws in simulation work).  With z = (1, x')' and
e = exp(beta'x), the moment matrices are averages of

    plain     e * z z'
    times     e * (1 + k e) * z z'
    over      e / (1 + k e) * z z'
    over_sq   e / (1 + k e)^2 * z z'

for a constant k >= 0.  Every covariance is V = f * E(e) * B^-1 M B^-1,
with bread B, meat M, constant k and factor f from one row per family:

    family    bread       meat           k     f
    full      plain       none           -     1
    under-w   plain       times(c)       c     1
    under-bc  over(c)     none           c     1
    over-w    plain       none           -     f(lam)
    over-bc   over(c_o)   over_sq(c_o)   c_o   f(lam)

No meat, or k = 0, means M = B, and V is then f * E(e) * B^-1 exactly.
The inflation factor is f(lam) = ((1+lam)^2 + lam) / (1+lam)^2 and the
limit constants are c = exp(alpha_t)/pi0 and c_o = lambda_n * exp(alpha_t).
`covariance` is the one entry point; the v_* functions wrap it.
Efficiency comparisons between these matrices are statements in the
Loewner (positive-semidefinite) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .estimators import EstimatorFamily
from .model import RareLogitError
from .sampling import DesignKind

__all__ = [
    "SCALING_LABEL",
    "SingularMomentMatrixError",
    "VarianceReport",
    "covariance",
    "limit_constants",
    "loewner_ge",
    "moment_matrix",
    "oversampling_variance_factor",
    "required_constants",
    "v_full",
    "v_over_bc",
    "v_over_weighted",
    "v_under_bc",
    "v_under_weighted",
    "weighted_moment_inequality_check",
]

SCALING_LABEL = "covariance of sqrt(n1) * (theta_hat - theta_true)"
EXPONENT_GUARD = 700.0
CONDITION_LIMIT = 1e12
LOEWNER_RTOL = 1e-8

MomentTransform = Literal["plain", "times", "over", "over_sq"]


class SingularMomentMatrixError(RareLogitError):
    """A plug-in moment matrix is numerically singular (condition > 1e12)."""


@dataclass(frozen=True, eq=False)
class VarianceReport:
    """An asymptotic covariance matrix tagged with its estimator family.

    v is symmetric positive definite whenever the plug-in moment matrices
    are nonsingular; scaling records the convention it is stated in.  The
    limit constants that produced it (c, c_o, lam) are kept when they
    apply to the family.
    """

    kind: EstimatorFamily
    v: np.ndarray
    scaling: str = SCALING_LABEL
    c: float | None = None
    c_o: float | None = None
    lam: float | None = None


def _as_sample(xs: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.ndim != 2:
        raise ValueError("covariate sample must be an (m, d) matrix")
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    if beta.shape != (xs.shape[1],):
        raise ValueError(
            f"beta has shape {beta.shape}, sample has d={xs.shape[1]}"
        )
    if xs.shape[0] < xs.shape[1] + 1:
        raise ValueError("need at least d + 1 sample rows")
    return xs, beta


def moment_matrix(
    xs: np.ndarray,
    beta: np.ndarray,
    transform: MomentTransform = "plain",
    constant: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Plug-in moment matrix over xs, plus the average of exp(beta'x).

    transform selects the integrand listed in the module docstring;
    constant is its k.  Exponents beyond 700 in magnitude (or a nonfinite
    integrand) raise OverflowError instead of propagating infinities.
    """
    xs, beta = _as_sample(xs, beta)
    constant = _check_constant(constant, "constant")
    expo = xs @ beta
    if np.max(np.abs(expo), initial=0.0) > EXPONENT_GUARD:
        raise OverflowError(
            f"exponent magnitude exceeds {EXPONENT_GUARD:g}; the plug-in "
            "average would overflow"
        )
    e = np.exp(expo)
    if transform == "plain":
        wgt = e
    elif transform == "times":
        wgt = e * (1.0 + constant * e)
    elif transform == "over":
        wgt = e / (1.0 + constant * e)
    elif transform == "over_sq":
        wgt = e / (1.0 + constant * e) ** 2
    else:
        raise ValueError(f"unknown transform {transform!r}")
    if not np.all(np.isfinite(wgt)):
        raise OverflowError("nonfinite integrand in the plug-in average")
    m = xs.shape[0]
    z = np.hstack([np.ones((m, 1)), xs])
    mat = (z * wgt[:, None]).T @ z / m
    return 0.5 * (mat + mat.T), float(np.mean(e))


def _sym_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse through a symmetric eigendecomposition, with a condition check."""
    vals, vecs = np.linalg.eigh(mat)
    tiny = np.max(np.abs(vals)) / CONDITION_LIMIT
    if np.min(vals) <= tiny:
        cond = np.inf if np.min(np.abs(vals)) == 0 else np.max(np.abs(vals)) / np.min(np.abs(vals))
        raise SingularMomentMatrixError(
            f"moment matrix is numerically singular (condition {cond:.3e})"
        )
    inv = (vecs / vals) @ vecs.T
    return 0.5 * (inv + inv.T)


def _sandwich(bread_inv: np.ndarray, meat: np.ndarray) -> np.ndarray:
    v = bread_inv @ meat @ bread_inv
    return 0.5 * (v + v.T)


class _Sandwich(NamedTuple):
    """Bread and meat integrands and the name of their constant k."""

    bread: MomentTransform
    meat: MomentTransform | None
    constant: str | None


_SANDWICHES = {
    EstimatorFamily.FULL: _Sandwich("plain", None, None),
    EstimatorFamily.UNDER_WEIGHTED: _Sandwich("plain", "times", "c"),
    EstimatorFamily.UNDER_BIAS_CORRECTED: _Sandwich("over", None, "c"),
    EstimatorFamily.OVER_WEIGHTED: _Sandwich("plain", None, None),
    EstimatorFamily.OVER_BIAS_CORRECTED: _Sandwich("over", "over_sq", "c_o"),
}


def required_constants(family: EstimatorFamily) -> tuple[str, ...]:
    """Names of the constants covariance() needs for family, in checking order."""
    constant = _SANDWICHES[family].constant
    names = ("lam",) if family.design_kind is DesignKind.OVERSAMPLE else ()
    return names if constant is None else names + (constant,)


def covariance(
    family: EstimatorFamily,
    xs: np.ndarray,
    beta: np.ndarray,
    *,
    c: float | None = None,
    c_o: float | None = None,
    lam: float | None = None,
) -> VarianceReport:
    """Asymptotic covariance of a family's estimator, by its table row.

    Constants the family does not use are ignored and not reported.
    """
    names = required_constants(family)
    given = {"c": c, "c_o": c_o, "lam": lam}
    missing = [name for name in names if given[name] is None]
    if missing:
        raise ValueError(f"{family.value} variance needs {missing[0]}")
    used = {name: _check_constant(given[name], name) for name in names}

    row = _SANDWICHES[family]
    k = 0.0 if row.constant is None else used[row.constant]
    bread, e_mean = moment_matrix(xs, beta, row.bread, k)
    bread_inv = _sym_inverse(bread)
    if row.meat is None or k == 0.0:
        v = e_mean * bread_inv
    else:
        meat, _ = moment_matrix(xs, beta, row.meat, k)
        v = e_mean * _sandwich(bread_inv, meat)
    if family.design_kind is DesignKind.OVERSAMPLE:
        v = oversampling_variance_factor(used["lam"]) * v
    return VarianceReport(kind=family, v=v, **used)


def v_full(xs: np.ndarray, beta: np.ndarray) -> VarianceReport:
    """Covariance of the full-data MLE: E(e) * plain^-1."""
    return covariance(EstimatorFamily.FULL, xs, beta)


def v_under_weighted(xs: np.ndarray, beta: np.ndarray, c: float) -> VarianceReport:
    """Covariance of the under-sampled weighted estimator (sandwich in c)."""
    return covariance(EstimatorFamily.UNDER_WEIGHTED, xs, beta, c=c)


def v_under_bc(xs: np.ndarray, beta: np.ndarray, c: float) -> VarianceReport:
    """Covariance of the under-sampled bias-corrected estimator: E(e) * over(c)^-1."""
    return covariance(EstimatorFamily.UNDER_BIAS_CORRECTED, xs, beta, c=c)


def oversampling_variance_factor(lam: float) -> float:
    """Variance inflation ((1+lam)^2 + lam) / (1+lam)^2 from case replication.

    Equals 1 only at lam = 0 and tends back to 1 as lam grows.
    """
    lam = _check_constant(lam, "lam")
    return ((1.0 + lam) ** 2 + lam) / (1.0 + lam) ** 2


def v_over_weighted(xs: np.ndarray, beta: np.ndarray, lam: float) -> VarianceReport:
    """Covariance of the over-sampled weighted estimator: f(lam) * E(e) * plain^-1."""
    return covariance(EstimatorFamily.OVER_WEIGHTED, xs, beta, lam=lam)


def v_over_bc(
    xs: np.ndarray, beta: np.ndarray, lam: float, c_o: float
) -> VarianceReport:
    """Covariance of the over-sampled bias-corrected estimator (sandwich in c_o)."""
    return covariance(EstimatorFamily.OVER_BIAS_CORRECTED, xs, beta, c_o=c_o, lam=lam)


def _check_constant(value: float, name: str) -> float:
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if value == np.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def limit_constants(
    alpha_t: float, pi0: float | None = None, lambda_n: float | None = None
) -> tuple[float | None, float | None]:
    """Limit constants (c, c_o) = (exp(alpha_t)/pi0, lambda_n * exp(alpha_t)).

    Either rate may be omitted, in which case the matching constant is None.
    """
    alpha_t = float(alpha_t)
    if not np.isfinite(alpha_t):
        raise ValueError("alpha_t must be finite")
    with np.errstate(over="ignore"):
        e = float(np.exp(alpha_t))
    c = None if pi0 is None else e / DesignKind.UNDERSAMPLE.check_rate(pi0)
    c_o = None if lambda_n is None else DesignKind.OVERSAMPLE.check_rate(lambda_n) * e
    for name, value in (("c", c), ("c_o", c_o)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"limit constant {name} overflows at alpha_t={alpha_t:g}")
    return c, c_o


def _check_symmetric_pair(a: np.ndarray, b: np.ndarray, tol: float) -> None:
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrices must be square and of equal shape")
    if np.max(np.abs(a - a.T)) > tol or np.max(np.abs(b - b.T)) > tol:
        raise ValueError("matrices must be symmetric within tol")


def loewner_ge(a: np.ndarray, b: np.ndarray, tol: float | None = None) -> bool:
    """True iff a - b is positive semidefinite within tol.

    The default tolerance is 1e-8 relative to the larger trace of the two
    matrices (falling back to 1e-8 absolute when both traces vanish).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if tol is None:
        scale = max(abs(float(np.trace(a))), abs(float(np.trace(b))))
        tol = LOEWNER_RTOL * (scale if scale > 0 else 1.0)
    _check_symmetric_pair(a, b, tol)
    return bool(np.min(np.linalg.eigvalsh(a - b)) >= -tol)


def weighted_moment_inequality_check(vs: np.ndarray, hs: np.ndarray, tol: float = 1e-8) -> bool:
    """Verify the weighted-moment inequality on an empirical sample.

    For vectors v and positive scalars h,

        {E(v v')}^-1 E(h v v') {E(v v')}^-1  >=  {E(1/h v v')}^-1

    in the Loewner order, under any probability measure.  Here the
    expectations are averages over the rows of vs / entries of hs, so the
    check must come out true (up to floating point) for every valid input;
    it certifies e.g. the weighted-versus-bias-corrected variance ordering
    when v = e^{beta'x/2} z and h = 1 + c e^{beta'x}.
    """
    vs = np.asarray(vs, dtype=np.float64)
    if vs.ndim == 1:
        vs = vs[:, None]
    hs = np.asarray(hs, dtype=np.float64)
    if hs.shape != (vs.shape[0],):
        raise ValueError("hs must be one scalar per row of vs")
    if not np.all(np.isfinite(hs)) or np.any(hs <= 0.0):
        raise ValueError("h must be positive and finite")
    m = vs.shape[0]
    m0 = (vs.T @ vs) / m
    mh = (vs * hs[:, None]).T @ vs / m
    mih = (vs / hs[:, None]).T @ vs / m
    m0_inv = _sym_inverse(0.5 * (m0 + m0.T))
    lhs = _sandwich(m0_inv, 0.5 * (mh + mh.T))
    rhs = _sym_inverse(0.5 * (mih + mih.T))
    return loewner_ge(lhs, rhs, tol)

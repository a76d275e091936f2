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

for a constant k >= 0.  Every covariance is V = f * E(e) * B^-1 M B^-1.
It makes one plug-in pass over xs for z and e, and its bread B and meat M
are two weightings of that pass, with k and factor f from one family row:

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

The sample is an (m, d) array, or an iterator of row blocks, such as law
draws made block by block as the pass reads them.  The pass reads an
array in row blocks of at most BLOCK_ROWS (16,384) rows, adds each
block's sums of e and of the weighted z z', counts the rows it reads and
divides by that count m once at the end, so its memory is one block's
whatever m is.  A sample of at most one block gives the one-shot
averages bit for bit; over more blocks the sums are grouped by block,
which moves them only by rounding.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Literal, NamedTuple, NoReturn

import numpy as np

from .estimators import EstimatorFamily
from .model import BLOCK_ROWS, RareLogitError, _check_constant
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


def _row_blocks(xs: np.ndarray) -> Iterator[np.ndarray]:
    """An (m, d) sample, or m values of one covariate, in blocks of BLOCK_ROWS rows.

    A block is a view of a C-ordered sample and a C-ordered copy of any
    other, such as Dataset.x: block @ beta rounds differently on the
    other memory order for d >= 3.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.ndim != 2:
        raise ValueError("covariate sample must be an (m, d) matrix")
    return (np.ascontiguousarray(xs[lo : lo + BLOCK_ROWS]) for lo in range(0, xs.shape[0], BLOCK_ROWS))


def _plug_in(
    xs: np.ndarray | Iterator[np.ndarray],
    beta: np.ndarray,
    transforms: tuple[MomentTransform, ...],
    k: float,
) -> tuple[float, list[np.ndarray]]:
    """One checked pass over a covariate sample: E(e), and E(w(e, k) z z') per transform.

    xs is the covariate sample: an (m, d) array, or an iterator of row
    blocks, read once.  Each row block runs the exponent guard,
    e = exp(beta'x) and z = (1, x')', and adds its sums of e and of
    (z w)' z to running totals, which are divided by the count m of rows
    read once at the end; so memory grows with the block, not with m.  A
    sample of one block gives the one-shot averages bit for bit.  E(e) or
    any moment whose integrand overflows raises OverflowError.
    """
    blocks = xs if isinstance(xs, Iterator) else _row_blocks(xs)
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    d = beta.shape[0]
    # e > 0, so the e totals start at an exact 0; each moment total starts
    # at its first block's matrix, so one block adds nothing
    e_sum = e_max = np.float64(0.0)
    z = zw = None
    sums: list = [None] * len(transforms)
    m = 0
    # overflowing sums turn to inf with no warning and are checked once, after the pass
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            if block.shape[1:] != beta.shape:
                raise ValueError(f"beta has shape {beta.shape}, sample has d={block.shape[-1]}")
            expo = block @ beta
            # a nan exponent fails the guard too; only then are the inputs scanned
            if not np.max(np.abs(expo), initial=0.0) <= EXPONENT_GUARD:
                _guard_failed(itertools.chain([block], blocks), beta)
            e = np.exp(expo, out=expo)
            rows = block.shape[0]
            if z is None or z.shape[0] < rows:
                z = np.ones((rows, d + 1))
                zw = np.empty_like(z)
            zb, zwb = z[:rows], zw[:rows]
            zb[:, 1:] = block
            e_sum += np.sum(e)
            e_max = max(e_max, np.max(e))
            for i, transform in enumerate(transforms):
                np.multiply(zb, _INTEGRANDS[transform][0](e, k)[:, None], out=zwb)
                gram = zwb.T @ zb
                sums[i] = gram if sums[i] is None else sums[i] + gram
            m += rows
        if m < d + 1:
            raise ValueError("need at least d + 1 sample rows")
        e_mean = float(e_sum / m)
        if not np.isfinite(e_mean):
            raise OverflowError("nonfinite integrand in the plug-in average")
        moments = []
        for transform, total in zip(transforms, sums):
            power = _INTEGRANDS[transform][1]
            # 1 + k e is largest where e is; a numpy float's ** overflows to inf
            peak = (1.0 + k * e_max) ** power if power else 1.0
            moment = _symmetric(total / m)
            if not (np.isfinite(peak) and np.all(np.isfinite(moment))):
                raise OverflowError("nonfinite integrand in the plug-in average")
            moments.append(moment)
    return e_mean, moments


def _guard_failed(blocks: Iterable[np.ndarray], beta: np.ndarray) -> NoReturn:
    """Raise for an exponent past the guard; blocks are the failing block and all after it.

    The blocks before it passed the guard, so they are finite.
    """
    if not all(np.all(np.isfinite(block)) for block in blocks):
        raise ValueError("covariate sample must be finite")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    raise OverflowError(
        f"exponent magnitude exceeds {EXPONENT_GUARD:g}; the plug-in "
        "average would overflow"
    )


# transform -> (its weight w(e, k) on z z', the power of 1 + k e in w)
_INTEGRANDS = {
    "plain": (lambda e, k: e, 0),
    "times": (lambda e, k: e * (1.0 + k * e), 1),
    "over": (lambda e, k: e / (1.0 + k * e), 1),
    "over_sq": (lambda e, k: e / (1.0 + k * e) ** 2, 2),
}


def _symmetric(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _gram(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return _symmetric((v * w[:, None]).T @ v / v.shape[0])


def moment_matrix(
    xs: np.ndarray | Iterator[np.ndarray],
    beta: np.ndarray,
    transform: MomentTransform = "plain",
    constant: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Plug-in moment matrix over xs, plus the average of exp(beta'x).

    xs is the covariate sample: an (m, d) array, or an iterator of row
    blocks.  transform selects the integrand listed in the module
    docstring; constant is its k.  Exponents beyond 700 in magnitude raise
    OverflowError, and so does an integrand that overflows, with no numpy
    warning.  For "over" and "over_sq" that includes 1 + k e (or its
    square) overflowing, which would turn their weights into zeros, not infs.
    A sample or beta that is not finite raises ValueError.
    """
    if transform not in _INTEGRANDS:
        raise ValueError(f"unknown transform {transform!r}")
    constant = _check_constant("constant", constant)
    e_mean, (moment,) = _plug_in(xs, beta, (transform,), constant)
    return moment, e_mean


def _sym_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse through a symmetric eigendecomposition, with a condition check."""
    vals, vecs = np.linalg.eigh(mat)
    tiny = np.max(np.abs(vals)) / CONDITION_LIMIT
    if np.min(vals) <= tiny:
        cond = np.inf if np.min(np.abs(vals)) == 0 else np.max(np.abs(vals)) / np.min(np.abs(vals))
        raise SingularMomentMatrixError(
            f"moment matrix is numerically singular (condition {cond:.3e})"
        )
    return _symmetric((vecs / vals) @ vecs.T)


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
    xs: np.ndarray | Iterator[np.ndarray],
    beta: np.ndarray,
    *,
    c: float | None = None,
    c_o: float | None = None,
    lam: float | None = None,
) -> VarianceReport:
    """Asymptotic covariance of a family's estimator, by its table row.

    xs is the covariate sample: an (m, d) array, or an iterator of row
    blocks.  One pass over its row blocks gives E(e) and both moment
    matrices, so a sample drawn block by block is never held whole.
    Constants the family does not use are ignored and not reported.
    """
    names = required_constants(family)
    given = {"c": c, "c_o": c_o, "lam": lam}
    missing = [name for name in names if given[name] is None]
    if missing:
        raise ValueError(f"{family.value} variance needs {missing[0]}")
    used = {name: _check_constant(name, given[name]) for name in names}

    row = _SANDWICHES[family]
    k = 0.0 if row.constant is None else used[row.constant]
    # no meat, or k = 0, means M = B: the pass then weighs the bread alone
    transforms = (row.bread,) if row.meat is None or k == 0.0 else (row.bread, row.meat)
    e_mean, moments = _plug_in(xs, beta, transforms, k)
    bread_inv = _sym_inverse(moments[0])
    if len(moments) == 1:
        v = e_mean * bread_inv
    else:
        v = e_mean * _symmetric(bread_inv @ moments[1] @ bread_inv)
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
    lam = _check_constant("lam", lam)
    return ((1.0 + lam) ** 2 + lam) / (1.0 + lam) ** 2


def v_over_weighted(xs: np.ndarray, beta: np.ndarray, lam: float) -> VarianceReport:
    """Covariance of the over-sampled weighted estimator: f(lam) * E(e) * plain^-1."""
    return covariance(EstimatorFamily.OVER_WEIGHTED, xs, beta, lam=lam)


def v_over_bc(
    xs: np.ndarray, beta: np.ndarray, lam: float, c_o: float
) -> VarianceReport:
    """Covariance of the over-sampled bias-corrected estimator (sandwich in c_o)."""
    return covariance(EstimatorFamily.OVER_BIAS_CORRECTED, xs, beta, c_o=c_o, lam=lam)


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
    matrices (falling back to 1e-8 absolute when both traces vanish).  A
    matrix with a cell that is not finite, or a tol that is not, raises
    ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("matrices must be finite")
    if tol is None:
        scale = max(abs(float(np.trace(a))), abs(float(np.trace(b))))
        tol = LOEWNER_RTOL * (scale if scale > 0 else 1.0)
    elif not np.isfinite(tol):
        raise ValueError("tol must be finite")
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
    if not np.all(np.isfinite(vs)):
        raise ValueError("vs must be finite")
    hs = np.asarray(hs, dtype=np.float64)
    if hs.shape != (vs.shape[0],):
        raise ValueError("hs must be one scalar per row of vs")
    if not np.all(np.isfinite(hs)) or np.any(hs <= 0.0):
        raise ValueError("h must be positive and finite")
    m0_inv = _sym_inverse(_gram(vs, np.ones_like(hs)))
    lhs = _symmetric(m0_inv @ _gram(vs, hs) @ m0_inv)
    rhs = _sym_inverse(_gram(vs, 1.0 / hs))
    return loewner_ge(lhs, rhs, tol)

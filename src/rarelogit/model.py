"""Logistic-regression objective machinery and a damped Newton maximizer.

Everything here works on a weighted log-likelihood

    l(theta) = sum_i w_i * { y_i * z_i'theta - log(1 + exp(z_i'theta)) }

with nonnegative observation weights w_i and z_i = (1, x_i')'.  The solver
is plain Newton ascent with backtracking step-halving, which is globally
convergent on this concave objective whenever the maximizer exists.  A
Newton step reads only the gradient and the Hessian, so the objective is
computed only where the line search reads it (see fit_mle).
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AllOneClassError",
    "Coefficients",
    "Dataset",
    "FitResult",
    "RareLogitError",
    "SeparationError",
    "SingularHessianError",
    "SolverSettings",
    "fit_mle",
    "gradient",
    "hessian",
    "log_likelihood",
    "predict_prob",
]

MAX_HALVINGS = 30
RIDGE_SCALE = 1e-10
# Slack for step acceptance: near the optimum the true Newton gain drops
# below the float resolution of the objective, so "does not decrease" must
# be read up to rounding noise or backtracking stalls before grad <= tol.
ACCEPT_SLACK_ULPS = 16.0
# Rows per kernel block.  A block's d + 5 rows of scratch stay in cache
# while its whole chain runs, where whole-array passes over n = 1e5 rows
# stream from memory; see _Kernel.
BLOCK_ROWS = 16384
# A cold fit of at least PILOT_MIN_ROWS active rows whose control weight is
# at least PILOT_MIN_RATIO times its case weight starts from a pilot fit on
# every case and every PILOT_STRIDE-th control; see fit_mle.
PILOT_MIN_ROWS = 50_000
PILOT_MIN_RATIO = 20
PILOT_STRIDE = 50


class RareLogitError(Exception):
    """Base class for statistical and numerical failures in this package.

    Contract violations (bad shapes, out-of-range parameters) raise plain
    ValueError instead; this hierarchy is reserved for data-dependent
    failures a caller may want to catch and count.
    """


class AllOneClassError(RareLogitError):
    """No weighted case or no weighted control: the MLE does not exist."""


class SeparationError(RareLogitError):
    """Iterates diverged past the bound: the data are (quasi-)separated."""


class SingularHessianError(RareLogitError):
    """The Newton system is unsolvable even after the ridge fallback."""


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Covariate rows plus binary labels, held as the design every fit reads.

    Dataset(x=x, y=y) takes x of shape (n, d), with no intercept column,
    and 0/1 labels y.  It holds its own copy of them: the (1 + d) x n
    transpose z' = [1; x'] as zt, and y as int64.  zt is laid out in C
    order, one contiguous row per coefficient, for every d: the kernel's
    products stream along rows, which is faster than the row-major z rows
    of np.vstack's Fortran order for d >= 2.  x is the view zt[1:].T, so a
    dataset, pickled or copied, carries one covariate array.  The case and
    control counts and the indices of the case rows, _cases, are found
    when the dataset is made.  A weight vector that differs from a constant
    only on the cases, such as w * y or the over-sampling
    inverse-probability weights, is built from them with work of order n1
    instead of label arithmetic over all n rows.
    """

    zt: np.ndarray
    y: np.ndarray
    _cases: np.ndarray
    n1: int
    n0: int

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (n, d), got ndim={x.ndim}")
        n, d = x.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        y = np.asarray(y)
        if y.shape != (n,):
            raise ValueError(f"y must have shape ({n},), got {y.shape}")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        self._hold(_augmented(x), y.astype(np.int64))

    def _hold(self, zt: np.ndarray, y: np.ndarray) -> None:
        cases = np.flatnonzero(y == 1)  # 5x faster than on the int64 labels
        n1 = cases.size
        for name, value in (("zt", zt), ("y", y), ("_cases", cases), ("n1", n1), ("n0", y.shape[0] - n1)):
            object.__setattr__(self, name, value)

    @classmethod
    def _drawn(cls, zt: np.ndarray, y: np.ndarray) -> "Dataset":
        """A dataset valid by construction, held as given: no checks, no copies.

        zt must be a finite float64 (1 + d, n) array in C order whose first
        row is ones, as _augmented and take() make it, and y int64 0/1
        labels of length n that no one else writes to.
        """
        data = object.__new__(cls)
        data._hold(zt, y)
        return data

    @property
    def x(self) -> np.ndarray:
        """The (n, d) covariate rows, a view of zt."""
        return self.zt[1:].T

    @property
    def n(self) -> int:
        return self.zt.shape[1]

    @property
    def d(self) -> int:
        return self.zt.shape[0] - 1

    def take(self, rows: np.ndarray) -> "Dataset":
        """The dataset of the given rows, in their order, gathered from zt.

        rows are indices into this dataset and are not re-checked, and
        neither are the gathered values.
        """
        return Dataset._drawn(np.take(self.zt, rows, axis=1), np.take(self.y, rows))


def _augmented(x: np.ndarray) -> np.ndarray:
    """z' = [1; x'] of float64 (n, d) rows x in any memory order, in C order."""
    zt = np.empty((x.shape[1] + 1, x.shape[0]))
    zt[0] = 1.0
    zt[1:] = x.T
    return zt


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Intercept plus slope vector: theta = (alpha, beta')'."""

    alpha: float
    beta: np.ndarray

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        beta = np.atleast_1d(np.asarray(self.beta, dtype=np.float64)).copy()
        if beta.ndim != 1:
            raise ValueError("beta must be a vector")
        if not (np.isfinite(alpha) and np.all(np.isfinite(beta))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.alpha], self.beta))

    @classmethod
    def from_vector(cls, theta: np.ndarray) -> "Coefficients":
        theta = np.asarray(theta, dtype=np.float64)
        return cls(alpha=float(theta[0]), beta=theta[1:])


@dataclass(frozen=True)
class SolverSettings:
    """Newton solver knobs shared by every estimator, checked once here.

    tol bounds the gradient max-norm at convergence, max_iter caps the
    accepted Newton steps, and an iterate whose max-norm passes
    divergence_bound raises SeparationError (the usual symptom of
    separated data).
    """

    tol: float = 1e-8
    max_iter: int = 100
    divergence_bound: float = 30.0

    def __post_init__(self) -> None:
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.divergence_bound > 0:
            raise ValueError("divergence_bound must be positive")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted coefficients plus solver diagnostics.

    The solver rescales weights so that the largest active weight is one
    (the maximizer is invariant under positive rescaling of the weights);
    grad_max_norm and neg_hessian refer to that rescaled objective.
    neg_hessian is the negative Hessian at theta, a symmetric positive
    semidefinite matrix.  evaluations counts the kernel's passes over the
    rows, with or without the objective: the start point, plus every
    line-search candidate, plus the objective of a gradient-accepted
    iterate where a step from it fell back to halving.  So it is
    iterations + 1 when no step was halved.  stop_reason says why the solver stopped:
    "converged" (max|grad| <= tol), "max_iter" (max_iter steps taken) or
    "stalled" (no halving of the Newton step improved the objective).
    iterations, evaluations and the rest describe this fit only;
    pilot_iterations counts the Newton steps of the pilot fit whose
    estimate started it (see fit_mle), and is 0 when no pilot ran or the
    fit fell back to the log-odds start.
    """

    theta: Coefficients
    iterations: int
    grad_max_norm: float
    neg_hessian: np.ndarray
    evaluations: int
    stop_reason: str
    pilot_iterations: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _check_weights(data: Dataset, weights: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The weights as an array, with their smallest and largest value, from one scan each.

    A nan anywhere makes both extremes nan, and an infinity is one of them,
    so a nonfinite weight is reported before a negative one.
    """
    w = np.asarray(weights)
    if w.dtype.kind not in "iu":
        # integer counts stay as they are: the kernel converts them as it rescales
        w = w.astype(np.float64, copy=False)
    if w.shape != (data.n,):
        raise ValueError(f"weights must have shape ({data.n},), got {w.shape}")
    lo, hi = w.min(), w.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("weights must be finite")
    if lo < 0:
        raise ValueError("weights must be nonnegative")
    return w, lo, hi


def _check_theta(data: Dataset, theta: Coefficients) -> np.ndarray:
    if theta.beta.shape[0] != data.d:
        raise ValueError(
            f"beta has length {theta.beta.shape[0]}, dataset has d={data.d}"
        )
    return theta.as_vector()


def predict_prob(theta: Coefficients, x_row: np.ndarray) -> float:
    """Event probability exp(a + x'b) / (1 + exp(a + x'b)) for one row.

    Evaluated as 1 / (1 + exp(-(a + x'b))) (see _expit), so a linear
    predictor of any finite size gives a probability in [0, 1] without a
    warning.
    """
    x_row = np.atleast_1d(np.asarray(x_row, dtype=np.float64))
    if x_row.shape != theta.beta.shape:
        raise ValueError(
            f"x_row has shape {x_row.shape}, beta has shape {theta.beta.shape}"
        )
    if not np.all(np.isfinite(x_row)):
        raise ValueError("x_row must be finite")
    return float(_expit(np.array(theta.alpha + x_row @ theta.beta)))


def _expit(p: np.ndarray) -> np.ndarray:
    """The sigmoid 1 / (1 + exp(-p)) of a float64 array, in place; returns p.

    This is scipy.special.expit's formula; numpy's exp can differ from the
    C library's in the last bit, so a value can differ from expit's by up to
    4 ulps.  Below p = -709.78, exp(-p) overflows to inf and the result
    is 0.0, as expit's is; that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        np.exp(np.negative(p, out=p), out=p)
    p += 1.0
    return np.divide(1.0, p, out=p)


# The kernel buffer lent to this thread, as buf, inside a _lending block only.
_lent = threading.local()


@contextlib.contextmanager
def _lending() -> Iterator[None]:
    """Lend one kernel buffer to every _Kernel built on this thread inside the block.

    The block's first kernel makes the buffer, a later kernel that needs
    more grows it, and it is dropped when the outermost block ends, also
    when it raises.  A block opened inside another reuses the enclosing
    block's buffer, so a thread holds at most one lent buffer.  A kernel
    built outside any block, or on another thread, makes its own.

    Each kernel writes the buffer's weights and scratch before it reads
    them, so which memory holds them cannot change a fit's bytes, and no
    array a fit returns is a view of it.  But a kernel owns the buffer
    only until the next kernel on this thread is built, so a block may
    hold only fits that run one after another, as a CLI command's and a
    chunk of replications' do (see cli.main and
    simulation._run_replications).  There, after the first fits, building
    a kernel allocates nothing of length n.
    """
    if hasattr(_lent, "buf"):
        yield
        return
    _lent.buf = np.empty(0)
    try:
        yield
    finally:
        del _lent.buf


class _Kernel:
    """The weighted log-likelihood of one problem and its derivatives.

    The design is the dataset's z' = [1; x'], zt, in C order (see Dataset).
    A pass walks it in blocks of at most BLOCK_ROWS columns and runs each
    block's whole chain while the block is in cache, adding the block's
    objective, gradient and negative Hessian to the totals.  A problem of
    at most one block is one block of all its rows, so its results do not
    depend on BLOCK_ROWS.  evaluate() computes all three; derivatives()
    skips the objective's max, log1p and two dot products per row, and its
    gradient and Hessian are evaluate()'s bit for bit.

    Every buffer is a view of one buffer: w / scale and w * y over all n
    rows, then d + 5 rows of one block's scratch (the weighted design zv,
    then eta, e, p and phi), 2.4 MB at n = 1e5, d = 1.  w * y is written
    as zeros plus w on the dataset's case rows, without arithmetic on the
    int64 labels.  The buffer is the one _lending lends this thread, or
    the kernel's own outside a _lending block.

    Each theta costs one exp per row: with eta = z'theta and
    e = exp(-|eta|), log(1 + e^eta) = max(eta, 0) + log1p(e),
    p = e/(1 + e) or 1 - e/(1 + e) by the sign of eta, and
    p(1 - p) = e/(1 + e)^2.
    """

    def __init__(self, data: Dataset, w: np.ndarray, scale: float) -> None:
        k, n = data.d + 1, data.n
        rows = min(n, BLOCK_ROWS)
        size = 2 * n + (k + 4) * rows
        lent = getattr(_lent, "buf", None)
        buf = lent if lent is not None and lent.size >= size else np.empty(size)
        if lent is not None:
            _lent.buf = buf
        self.w, self.wy = buf[: 2 * n].reshape(2, n)
        np.divide(w, scale, out=self.w)
        # w * y is w on the cases and 0 elsewhere, bit for bit
        cases = data._cases
        self.wy.fill(0.0)
        self.wy[cases] = self.w[cases]
        zt, scratch = data.zt, buf[2 * n :]

        def work(m: int) -> tuple:
            # a block of m rows: its weighted design zv, then eta, e, p and phi
            return (scratch[: k * m].reshape(k, m), *scratch[k * m : (k + 4) * m].reshape(4, m))

        self.blocks = [
            (zt[:, lo : lo + rows], self.w[lo : lo + rows], self.wy[lo : lo + rows],
             *work(min(rows, n - lo)))
            for lo in range(0, n, rows)
        ]

    def evaluate(self, theta_vec: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Objective, gradient and negative Hessian at theta.

        Huge covariates can overflow the derivatives; _solve_newton rejects
        the nonfinite result, so numpy's overflow warnings are not raised.
        """
        return self._sums(theta_vec, True)

    def derivatives(self, theta_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """evaluate()'s gradient and negative Hessian, without the objective."""
        return self._sums(theta_vec, False)[1:]

    def _sums(self, theta_vec: np.ndarray, objective: bool) -> tuple:
        with np.errstate(over="ignore", invalid="ignore"):
            obj, grad, h = _block_sums(theta_vec, objective, *self.blocks[0])
            for block in self.blocks[1:]:
                more = _block_sums(theta_vec, objective, *block)
                if objective:
                    obj += more[0]
                grad += more[1]
                h += more[2]
            return obj, grad, 0.5 * (h + h.T)


def _block_sums(theta_vec, objective, zt, w, wy, zv, eta, e, p, phi) -> tuple:
    """One block's objective (None unless asked for), gradient and unsymmetrized negative Hessian."""
    np.matmul(theta_vec, zt, out=eta)
    np.exp(np.negative(np.abs(eta, out=e), out=e), out=e)
    obj = None
    if objective:
        # p holds log(1 + e^eta) until the derivatives reuse it
        np.add(np.maximum(eta, 0.0, out=p), np.log1p(e, out=phi), out=p)
        obj = float(wy @ eta - w @ p)
    np.add(1.0, e, out=phi)
    np.divide(e, phi, out=p)  # e/(1 + e)
    np.divide(p, phi, out=phi)  # e/(1 + e)^2 = p(1 - p)
    np.subtract(1.0, p, out=p, where=eta >= 0.0)  # p = 1 - e/(1 + e)
    np.subtract(wy, np.multiply(w, p, out=p), out=p)  # w(y - p)
    np.multiply(zt, np.multiply(w, phi, out=phi), out=zv)
    return obj, zt @ p, zv @ zt.T


def _evaluate(data: Dataset, weights: np.ndarray, theta: Coefficients):
    """The kernel's (objective, gradient, negative Hessian) at theta."""
    w = _check_weights(data, weights)[0]
    theta_vec = _check_theta(data, theta)
    return _Kernel(data, w, 1.0).evaluate(theta_vec)  # w / 1.0 is w exactly


def log_likelihood(data: Dataset, weights: np.ndarray, theta: Coefficients) -> float:
    """Weighted log-likelihood sum_i w_i {y_i z_i'theta - log(1 + e^{z_i'theta})}."""
    return _evaluate(data, weights, theta)[0]


def gradient(data: Dataset, weights: np.ndarray, theta: Coefficients) -> np.ndarray:
    """Gradient sum_i w_i {y_i - p_i(theta)} z_i of the weighted log-likelihood."""
    return _evaluate(data, weights, theta)[1]


def hessian(data: Dataset, weights: np.ndarray, theta: Coefficients) -> np.ndarray:
    """Hessian -sum_i w_i p_i(1 - p_i) z_i z_i' of the weighted log-likelihood."""
    return -_evaluate(data, weights, theta)[2]


def _solve_newton(neg_hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve neg_hess @ step = grad, with one ridge retry.

    A Cholesky factorization only tests that the system is positive
    definite; np.linalg.solve then solves it.  A system that is not is
    retried once with a ridge of RIDGE_SCALE times the mean curvature.
    """
    if not (np.all(np.isfinite(neg_hess)) and np.all(np.isfinite(grad))):
        raise SingularHessianError("Newton system overflowed: nonfinite curvature or gradient")
    system = neg_hess
    for _ in range(2):
        try:
            np.linalg.cholesky(system)  # raises unless system is positive definite
            return np.linalg.solve(system, grad)
        except np.linalg.LinAlgError:
            k = neg_hess.shape[0]
            system = neg_hess + RIDGE_SCALE * np.trace(neg_hess) / k * np.eye(k)
    raise SingularHessianError(
        "Newton system not solvable with a nonzero gradient "
        f"(max|grad| = {np.max(np.abs(grad)):.3e})"
    )


def fit_mle(
    data: Dataset,
    weights: np.ndarray,
    init: Coefficients | None = None,
    settings: SolverSettings = SolverSettings(),
) -> FitResult:
    """Maximize the weighted log-likelihood by damped Newton ascent.

    Zero-weight rows are dropped up front (a caller that fits a subset of
    rows can pass Dataset.take of them instead); the remaining weights are
    rescaled by their maximum, so fits are exactly invariant under
    positive rescaling of the weight vector.  Steps are halved (at most
    30 times) until the objective does not decrease beyond its float
    resolution, which keeps the sequence of accepted objective values
    nondecreasing up to rounding noise.  After the first step, a full
    Newton step is evaluated without the objective and accepted when the
    slope along it at the candidate is at least -ACCEPT_SLACK_ULPS eps,
    which on this concave objective implies the objective rule (the
    curvature condition of Nocedal & Wright 2006, Numerical Optimization,
    section 3.1).  A full step that fails it is judged on the objective
    and halved as above, so the steps are those of the objective rule
    alone.

    Parameters
    ----------
    data, weights : the problem; weights must be nonnegative.
    init : starting point.  By default the intercept starts at the weighted
        case log-odds log(sum w y / sum w (1 - y)), the exact MLE of the
        intercept-only model, and the slopes at zero.  A rare-events
        problem (at least PILOT_MIN_ROWS active rows, control weight at
        least PILOT_MIN_RATIO times the case weight) starts instead from a
        pilot fit on every case and every PILOT_STRIDE-th control in row
        order, with their own weights; its intercept is moved by
        log(W0_pilot / W0), the log of the share of the control weight the
        pilot kept.  Under-sampling the controls loses little when events
        are rare, so this starts within about n1^-1/2 of the optimum.  A
        pilot that raises RareLogitError or does not converge is dropped
        for the log-odds start.
    settings : tol, max_iter and divergence_bound (see SolverSettings).

    Raises
    ------
    ValueError : malformed weights or init.
    AllOneClassError : no positively weighted case or control.
    SeparationError : iterates escaped past divergence_bound.
    SingularHessianError : Newton system unsolvable at a non-stationary point.
    """
    w, lo, hi = _check_weights(data, weights)
    if lo == 0.0:
        # dropping zeros leaves the largest weight, the scale, as it is
        active = np.flatnonzero(w)
        data, w = data.take(active), w[active]
    if data.n1 == 0 or data.n0 == 0:
        raise AllOneClassError(
            "need at least one positively weighted case and one control"
        )
    # the pilot's kernel is done before this one is built (see _lending)
    pilot = _pilot(data, w, settings) if init is None else None
    kernel = _Kernel(data, w, hi)
    if pilot is not None:
        theta, pilot_iterations = pilot
        return _newton(kernel, theta, settings, pilot_iterations)
    if init is None:
        return _newton(kernel, _log_odds_start(kernel.w, data.y, data.d), settings)
    return _newton(kernel, _check_theta(data, init), settings)


def _log_odds_start(w: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """The intercept-only MLE: the weighted log-odds of a case, zero slopes."""
    theta = np.zeros(d + 1)
    theta[0] = np.log(np.sum(w, where=y == 1)) - np.log(np.sum(w, where=y == 0))
    return theta


def _pilot(data: Dataset, w: np.ndarray, settings: SolverSettings) -> tuple[np.ndarray, int] | None:
    """The pilot start of a cold rare-events fit and its steps, or None (see fit_mle)."""
    if data.n < PILOT_MIN_ROWS:
        return None
    cases = data._cases
    w1 = w[cases].sum()
    w0 = w.sum() - w1
    if w0 < PILOT_MIN_RATIO * w1:
        return None
    # the control of rank r (from 0, in row order) has every case k with
    # cases[k] - k <= r before it
    ranks = np.arange(0, data.n0, PILOT_STRIDE)
    controls = ranks + np.searchsorted(cases - np.arange(cases.size), ranks, side="right")
    rows = np.sort(np.concatenate((cases, controls)))
    pilot, pilot_w = data.take(rows), w[rows]
    try:
        kernel = _Kernel(pilot, pilot_w, pilot_w.max())
        fit = _newton(kernel, _log_odds_start(kernel.w, pilot.y, pilot.d), settings)
    except RareLogitError:
        return None
    if not fit.converged:
        return None
    theta = fit.theta.as_vector()
    theta[0] += np.log(w[controls].sum() / w0)
    return theta, fit.iterations


def _objective_accepts(cand_obj: float, obj: float) -> bool:
    """The objective rule: the candidate does not lower the objective beyond its float resolution."""
    slack = ACCEPT_SLACK_ULPS * np.finfo(float).eps * (1.0 + abs(obj))
    return bool(np.isfinite(cand_obj) and cand_obj >= obj - slack)


def _gradient_accepts(cand_grad: np.ndarray, step: np.ndarray) -> bool:
    """The gradient rule: the objective still rises along step at the candidate.

    h(t) = l(theta + t step) is concave, so h'(1) = grad(theta + step) . step
    >= 0 gives h(1) >= h(0) + h'(1) >= h(0).  The floor of -ACCEPT_SLACK_ULPS
    eps lies below the objective rule's slack, so in exact arithmetic this
    rule accepts only steps the objective rule accepts.
    """
    slope = float(cand_grad @ step)
    return bool(np.isfinite(slope) and slope >= -ACCEPT_SLACK_ULPS * np.finfo(float).eps)


def _newton(
    kernel: _Kernel, theta: np.ndarray, settings: SolverSettings, pilot_iterations: int = 0
) -> FitResult:
    """Damped Newton ascent from theta on the kernel's problem (see fit_mle).

    obj is None at an iterate the gradient rule accepted, until a step
    from it falls back to the objective rule.
    """
    obj, grad, neg_hess = kernel.evaluate(theta)
    evaluations = 1
    iterations = 0
    while True:
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= settings.tol:
            stop_reason = "converged"
            break
        if iterations >= settings.max_iter:
            stop_reason = "max_iter"
            break
        step = _solve_newton(neg_hess, grad)

        accepted = False
        if iterations > 0:
            cand = theta + step
            cand_obj = None
            cand_grad, cand_hess = kernel.derivatives(cand)
            evaluations += 1
            accepted = _gradient_accepts(cand_grad, step)
        if not accepted:
            if obj is None:
                obj = kernel.evaluate(theta)[0]
                evaluations += 1
            scale = 1.0
            for _ in range(MAX_HALVINGS + 1):
                cand = theta + scale * step
                cand_obj, cand_grad, cand_hess = kernel.evaluate(cand)
                evaluations += 1
                if _objective_accepts(cand_obj, obj):
                    break
                scale *= 0.5
            else:
                # numerically stationary: no step improves the objective
                stop_reason = "stalled"
                break
        theta, obj, grad, neg_hess = cand, cand_obj, cand_grad, cand_hess
        iterations += 1
        if np.max(np.abs(theta)) > settings.divergence_bound:
            raise SeparationError(
                f"iterate max-norm {np.max(np.abs(theta)):.3g} exceeded "
                f"{settings.divergence_bound:.3g}: data appear separated"
            )

    return FitResult(
        theta=Coefficients.from_vector(theta),
        iterations=iterations,
        grad_max_norm=grad_norm,
        neg_hessian=neg_hess,
        evaluations=evaluations,
        stop_reason=stop_reason,
        pilot_iterations=pilot_iterations,
    )

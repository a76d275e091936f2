"""Logistic-regression objective machinery and a damped Newton maximizer.

Everything here works on a weighted log-likelihood

    l(theta) = sum_i w_i * { y_i * z_i'theta - log(1 + exp(z_i'theta)) }

with nonnegative observation weights w_i and z_i = (1, x_i')'.  The solver
is plain Newton ascent with backtracking step-halving, which is globally
convergent on this concave objective whenever the maximizer exists.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import expit

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Covariate rows plus binary labels.

    x has shape (n, d) and carries no intercept column; the augmented
    design z' = [1; x'] is built once, on first use, as zt.  y holds 0/1
    labels.  Case and control counts are derived at construction.

    Besides zt, each thread that fits keeps one Newton kernel buffer here,
    made on its first fit: the rescaled weights w and w * y over the n
    rows, plus d + 5 rows of one kernel block's scratch, at most BLOCK_ROWS
    long (2.4 MB at n = 1e5, d = 1).  Its later fits on this dataset and
    on take() subsets of it reuse that buffer, growing it when a fit needs
    more.  The buffers are freed with the last of the dataset and its
    subsets, and they are never pickled or copied.
    """

    x: np.ndarray
    y: np.ndarray
    n1: int = field(init=False)
    n0: int = field(init=False)

    def __post_init__(self) -> None:
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D (n, d), got ndim={x.ndim}")
        n, d = x.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        y = np.asarray(self.y)
        if y.shape != (n,):
            raise ValueError(f"y must have shape ({n},), got {y.shape}")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        y = y.astype(np.int64)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n1", int(y.sum()))
        object.__setattr__(self, "n0", int(n - y.sum()))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @functools.cached_property
    def _workspace(self) -> threading.local:
        """Per-thread kernel buffers, as attribute buf (see _Kernel)."""
        return threading.local()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_workspace", None)
        return state

    @functools.cached_property
    def zt(self) -> np.ndarray:
        """The (1 + d) x n transpose z' = [1; x'] that every fit reads.

        np.vstack lays it out in C order for d = 1 but in Fortran order
        (row-major z rows) for d >= 2; the BLAS calls of a fit round
        differently on the other order, so take() keeps this layout.
        """
        return np.vstack((np.ones(self.n), self.x.T))

    def take(self, rows: np.ndarray) -> "Dataset":
        """The dataset of the given rows, in their order, gathered from zt.

        rows are indices into this dataset and are not re-checked, and
        neither are the gathered values.  The result's x is a view of its
        own zt, whose memory order matches what zt would be for those rows.
        The result shares this dataset's kernel buffers, one per fitting
        thread; a fit of the subset needs 2 doubles per selected row plus
        one block's scratch, and grows the buffer when that is more than
        it holds (see Dataset).
        """
        zt = self.zt
        if zt.flags.c_contiguous:
            zt = np.take(zt, rows, axis=1)
        else:
            zt = np.take(zt.T, rows, axis=0).T
        y = np.take(self.y, rows)
        n1 = int(y.sum())
        sub = object.__new__(Dataset)
        for name, value in (("x", zt[1:].T), ("y", y), ("n1", n1), ("n0", y.shape[0] - n1)):
            object.__setattr__(sub, name, value)
        sub.__dict__["zt"] = zt
        sub.__dict__["_workspace"] = self._workspace
        return sub


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
    semidefinite matrix.  evaluations counts kernel evaluations: the
    start point plus every line-search candidate, so it is iterations + 1
    when no step was halved.  stop_reason says why the solver stopped:
    "converged" (max|grad| <= tol), "max_iter" (max_iter steps taken) or
    "stalled" (no halving of the Newton step improved the objective).
    """

    theta: Coefficients
    iterations: int
    grad_max_norm: float
    neg_hessian: np.ndarray
    evaluations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _check_weights(data: Dataset, weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights)
    if w.dtype.kind not in "iu":
        # integer counts stay as they are: the kernel converts them as it rescales
        w = w.astype(np.float64, copy=False)
    if w.shape != (data.n,):
        raise ValueError(f"weights must have shape ({data.n},), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return w


def _check_theta(data: Dataset, theta: Coefficients) -> np.ndarray:
    if theta.beta.shape[0] != data.d:
        raise ValueError(
            f"beta has length {theta.beta.shape[0]}, dataset has d={data.d}"
        )
    return theta.as_vector()


def predict_prob(theta: Coefficients, x_row: np.ndarray) -> float:
    """Event probability exp(a + x'b) / (1 + exp(a + x'b)) for one row.

    Evaluated through the symmetric sigmoid, so linear predictors with
    magnitude up to several hundred do not overflow.
    """
    x_row = np.atleast_1d(np.asarray(x_row, dtype=np.float64))
    if x_row.shape != theta.beta.shape:
        raise ValueError(
            f"x_row has shape {x_row.shape}, beta has shape {theta.beta.shape}"
        )
    if not np.all(np.isfinite(x_row)):
        raise ValueError("x_row must be finite")
    return float(expit(theta.alpha + x_row @ theta.beta))


class _Kernel:
    """The weighted log-likelihood of one problem and its derivatives.

    The design is the dataset's z' = [1; x'] (see Dataset.zt for its
    memory order).  evaluate() walks it in blocks of BLOCK_ROWS columns
    and runs each block's whole chain while the block is in cache, adding
    the block's objective, gradient and negative Hessian to the totals.

    Every buffer is a view of the calling thread's one buffer in
    data._workspace: w / scale and w * y over all n rows, then d + 5 rows
    of one block's scratch (the weighted design zv, in zt's memory order,
    then eta, e, p and phi).  The buffer is shared with the dataset's
    take() subsets, grows when a fit needs more, is freed with the dataset
    and is never pickled.  So after a thread's first fit, neither building
    the kernel nor an evaluation allocates anything of length n.  A
    problem of at most one block makes one call of each kind over all its
    rows, so its results do not depend on BLOCK_ROWS.

    Each theta costs one exp per row: with eta = z'theta and
    e = exp(-|eta|), log(1 + e^eta) = max(eta, 0) + log1p(e),
    p = e/(1 + e) or 1 - e/(1 + e) by the sign of eta, and
    p(1 - p) = e/(1 + e)^2.
    """

    def __init__(self, data: Dataset, w: np.ndarray, scale: float) -> None:
        k, n = data.d + 1, data.n
        rows = min(n, BLOCK_ROWS)
        local = data._workspace
        buf = getattr(local, "buf", None)
        if buf is None or buf.size < 2 * n + (k + 4) * rows:
            buf = local.buf = np.empty(2 * n + (k + 4) * rows)
        self.w, self.wy = buf[: 2 * n].reshape(2, n)
        np.divide(w, scale, out=self.w)
        np.multiply(self.w, data.y, out=self.wy)
        zt, scratch = data.zt, buf[2 * n :]
        self.blocks = []
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            m = hi - lo
            zv = scratch[: k * m]
            zv = zv.reshape(k, m) if zt.flags.c_contiguous else zv.reshape(m, k).T
            eta, e, p, phi = scratch[k * m : (k + 4) * m].reshape(4, m)
            self.blocks.append((zt[:, lo:hi], self.w[lo:hi], self.wy[lo:hi], zv, eta, e, p, phi))

    def evaluate(self, theta_vec: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Objective, gradient and negative Hessian at theta.

        Huge covariates can overflow the derivatives; _solve_newton rejects
        the nonfinite result, so numpy's overflow warnings are not raised.
        """
        obj = 0.0
        for i, (zt, w, wy, zv, eta, e, p, phi) in enumerate(self.blocks):
            np.matmul(theta_vec, zt, out=eta)
            np.exp(np.negative(np.abs(eta, out=e), out=e), out=e)
            # p holds log(1 + e^eta) until the derivatives reuse it
            np.add(np.maximum(eta, 0.0, out=p), np.log1p(e, out=phi), out=p)
            obj += float(wy @ eta - w @ p)
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(1.0, e, out=phi)
                np.divide(e, phi, out=p)  # e/(1 + e)
                np.divide(p, phi, out=phi)  # e/(1 + e)^2 = p(1 - p)
                np.subtract(1.0, p, out=p, where=eta >= 0.0)  # p = 1 - e/(1 + e)
                np.subtract(wy, np.multiply(w, p, out=p), out=p)  # w(y - p)
                np.multiply(zt, np.multiply(w, phi, out=phi), out=zv)
                # the first block's sums are taken as they are, not added to
                # zeros, so a one-block problem keeps every byte (even -0.0)
                if i == 0:
                    grad, h = zt @ p, zv @ zt.T
                else:
                    grad += zt @ p
                    h += zv @ zt.T
        with np.errstate(over="ignore", invalid="ignore"):
            return obj, grad, 0.5 * (h + h.T)


def _evaluate(data: Dataset, weights: np.ndarray, theta: Coefficients):
    """The kernel's (objective, gradient, negative Hessian) at theta."""
    w = _check_weights(data, weights)
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
    """Solve neg_hess @ step = grad via Cholesky, with one ridge retry."""
    if not (np.all(np.isfinite(neg_hess)) and np.all(np.isfinite(grad))):
        raise SingularHessianError("Newton system overflowed: nonfinite curvature or gradient")
    system = neg_hess
    for _ in range(2):
        try:
            factor = scipy.linalg.cho_factor(system, check_finite=False)
            return scipy.linalg.cho_solve(factor, grad, check_finite=False)
        except scipy.linalg.LinAlgError:
            # retry once with a ridge of RIDGE_SCALE times the mean curvature
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
    nondecreasing up to rounding noise.

    Parameters
    ----------
    data, weights : the problem; weights must be nonnegative.
    init : starting point.  By default the intercept starts at the weighted
        case log-odds log(sum w y / sum w (1 - y)), the exact MLE of the
        intercept-only model, and the slopes at zero.
    settings : tol, max_iter and divergence_bound (see SolverSettings).

    Raises
    ------
    ValueError : malformed weights or init.
    AllOneClassError : no positively weighted case or control.
    SeparationError : iterates escaped past divergence_bound.
    SingularHessianError : Newton system unsolvable at a non-stationary point.
    """
    w = _check_weights(data, weights)
    if w.min() == 0.0:
        active = np.flatnonzero(w)
        data, w = data.take(active), w[active]
    y = data.y
    if not np.any(y == 1) or not np.any(y == 0):
        raise AllOneClassError(
            "need at least one positively weighted case and one control"
        )
    kernel = _Kernel(data, w, w.max())
    w = kernel.w
    if init is None:
        # start at the intercept-only MLE: the weighted log-odds of a case
        log_odds = np.log(np.sum(w, where=y == 1)) - np.log(np.sum(w, where=y == 0))
        init = Coefficients(log_odds, np.zeros(data.d))
    theta = _check_theta(data, init)

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

        scale = 1.0
        slack = ACCEPT_SLACK_ULPS * np.finfo(float).eps * (1.0 + abs(obj))
        for _ in range(MAX_HALVINGS + 1):
            cand = theta + scale * step
            cand_obj, cand_grad, cand_hess = kernel.evaluate(cand)
            evaluations += 1
            if np.isfinite(cand_obj) and cand_obj >= obj - slack:
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
    )

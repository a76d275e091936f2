"""Independent oracles used by the tests.

Everything here recomputes expected values from first principles (direct
formulas, brute-force search, finite differences, quadrature) without
touching the solver paths it is used to check.
"""

import csv

import numpy as np
from scipy.integrate import quad
from scipy.special import expit


def save_dataset_direct(path, data):
    """Dataset CSV written value by value through csv.writer and f"{v:.17g}"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(data.d)])
        for i in range(data.n):
            writer.writerow([str(int(data.y[i]))] + [f"{float(v):.17g}" for v in data.x[i]])


def loglik_direct(x, y, w, alpha, beta):
    """Weighted logistic log-likelihood, written out directly."""
    eta = alpha + np.asarray(x) @ np.atleast_1d(beta)
    return float(np.asarray(w) @ (np.asarray(y) * eta - np.logaddexp(0.0, eta)))


def gradient_direct(x, y, w, alpha, beta):
    """Gradient sum_i w_i (y_i - p_i) z_i, with p_i from scipy's expit."""
    z = np.column_stack([np.ones(len(y)), np.asarray(x)])
    p = expit(z @ np.concatenate(([alpha], np.atleast_1d(beta))))
    return z.T @ (np.asarray(w) * (np.asarray(y) - p))


def hessian_direct(x, y, w, alpha, beta):
    """Hessian -sum_i w_i p_i (1 - p_i) z_i z_i', with 1 - p_i as expit(-eta_i)."""
    z = np.column_stack([np.ones(len(y)), np.asarray(x)])
    eta = z @ np.concatenate(([alpha], np.atleast_1d(beta)))
    curvature = np.asarray(w) * expit(eta) * expit(-eta)
    return -np.einsum("i,ij,ik->jk", curvature, z, z)


def grid_max_loglik(x, y, w, lo=-10.0, hi=10.0):
    """Brute-force maximizer of the log-likelihood over (alpha, beta) in [lo, hi]^2.

    Dense coarse grid followed by local refinement around the incumbent;
    the objective is strictly concave on these instances, so refinement
    cannot lose the global maximizer.  Resolves both coordinates to 1e-4.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)

    def objective(alphas, betas):
        eta = alphas[:, None, None] + betas[None, :, None] * x[None, None, :]
        terms = y * eta - np.logaddexp(0.0, eta)
        return terms @ w

    a_lo, a_hi, b_lo, b_hi = lo, hi, lo, hi
    step = 0.05
    best_a = best_b = 0.0
    while True:
        alphas = np.arange(a_lo, a_hi + step / 2, step)
        betas = np.arange(b_lo, b_hi + step / 2, step)
        vals = objective(alphas, betas)
        ia, ib = np.unravel_index(np.argmax(vals), vals.shape)
        best_a, best_b = float(alphas[ia]), float(betas[ib])
        if step <= 1e-4:
            return best_a, best_b
        window = 4.0 * step
        a_lo, a_hi = best_a - window, best_a + window
        b_lo, b_hi = best_b - window, best_b + window
        step /= 10.0


def fd_gradient(f, theta, h=1e-5):
    """Central finite differences of a scalar function of theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (f(up) - f(dn)) / (2.0 * h)
    return out


def fd_jacobian(g, theta, h=1e-5):
    """Central finite differences of a vector function of theta."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((g(up) - g(dn)) / (2.0 * h))
    return np.stack(cols, axis=1)


def gauss_weighted_moment(beta, power, transform="plain", constant=0.0):
    """E[x^power * e^{beta x} * T(x)] for x ~ N(0,1) by adaptive quadrature.

    T is 1, (1 + k e^{beta x}), 1/(1 + k e^{beta x}), or the squared
    reciprocal, matching the plug-in moment-matrix integrands.
    """
    inv_sqrt2pi = 1.0 / np.sqrt(2.0 * np.pi)

    def integrand(t):
        e = np.exp(beta * t)
        if transform == "plain":
            g = e
        elif transform == "times":
            g = e * (1.0 + constant * e)
        elif transform == "over":
            g = e / (1.0 + constant * e)
        elif transform == "over_sq":
            g = e / (1.0 + constant * e) ** 2
        else:
            raise ValueError(transform)
        return t**power * g * inv_sqrt2pi * np.exp(-0.5 * t * t)

    value, _ = quad(integrand, -14.0, 14.0, limit=300, epsabs=1e-13, epsrel=1e-11)
    return value


def gauss_moment_matrix(beta, transform="plain", constant=0.0):
    """2x2 quadrature moment matrix [[m0, m1], [m1, m2]] for x ~ N(0,1), d = 1."""
    m0 = gauss_weighted_moment(beta, 0, transform, constant)
    m1 = gauss_weighted_moment(beta, 1, transform, constant)
    m2 = gauss_weighted_moment(beta, 2, transform, constant)
    return np.array([[m0, m1], [m1, m2]])


# transform -> its weight w(e, k) on z z', written out
PLUG_IN_WEIGHTS = {
    "plain": lambda e, k: e,
    "times": lambda e, k: e * (1.0 + k * e),
    "over": lambda e, k: e / (1.0 + k * e),
    "over_sq": lambda e, k: e / (1.0 + k * e) ** 2,
}


def plug_in_direct(xs, beta, transform="plain", constant=0.0):
    """One-shot plug-in over the whole sample at once: (E(w(e, k) z z'), E(e)).

    z = (1, x')' and e = exp(beta'x) are built for every row in one array
    each, and the average is one product over all rows, then symmetrised.
    """
    xs = np.asarray(xs, dtype=float)
    xs = xs.reshape(xs.shape[0], -1)
    z = np.hstack([np.ones((xs.shape[0], 1)), xs])
    e = np.exp(xs @ np.atleast_1d(np.asarray(beta, dtype=float)))
    mat = (z * PLUG_IN_WEIGHTS[transform](e, constant)[:, None]).T @ z / xs.shape[0]
    return 0.5 * (mat + mat.T), float(np.mean(e))


def sandwich_direct(xs, beta, bread, meat=None, constant=0.0, factor=1.0):
    """factor * E(e) * B^-1 M B^-1 from one-shot moments; no meat means M = B.

    B^-1 comes from a symmetric eigendecomposition, vecs diag(1/vals) vecs'.
    """
    b, e_mean = plug_in_direct(xs, beta, bread, constant)
    vals, vecs = np.linalg.eigh(b)
    b_inv = (vecs / vals) @ vecs.T
    b_inv = 0.5 * (b_inv + b_inv.T)
    if meat is None:
        v = e_mean * b_inv
    else:
        s = b_inv @ plug_in_direct(xs, beta, meat, constant)[0] @ b_inv
        v = e_mean * (0.5 * (s + s.T))
    return factor * v


def newton_one_rule(data, w, theta, solve, tol=1e-8, max_iter=100, slack_ulps=16.0, halvings=30, bound=30.0):
    """Damped Newton ascent that judges a fit's first step on the objective and every later one on its slope.

    Zero-weight rows are dropped and the other weights rescaled by their
    maximum, as fit_mle drops and rescales them; the sums come from the
    package's public log_likelihood, gradient and hessian, and
    solve(neg_hess, grad) gives each Newton step.  Each step is halved, at
    most halvings times, until it passes its rule: the first must not
    lower the objective by more than slack_ulps eps (1 + |objective|), and
    every later one must leave a slope gradient(cand) @ (scale * step),
    along the step taken, of at least -slack_ulps eps.  An iterate past
    bound in max-norm raises SeparationError.  Returns (theta, iterations,
    stop_reason).
    """
    from rarelogit import Coefficients, Dataset, SeparationError, gradient, hessian, log_likelihood

    keep = w > 0
    data, w = Dataset(x=data.x[keep], y=data.y[keep]), w[keep] / w[keep].max()
    point = Coefficients.from_vector
    floor = -slack_ulps * np.finfo(float).eps
    obj = log_likelihood(data, w, point(theta))
    iterations = 0
    while True:
        grad = gradient(data, w, point(theta))
        if np.max(np.abs(grad)) <= tol:
            return theta, iterations, "converged"
        if iterations >= max_iter:
            return theta, iterations, "max_iter"
        step = solve(-hessian(data, w, point(theta)), grad)
        for k in range(halvings + 1):
            taken = 0.5**k * step
            cand = theta + taken
            if iterations == 0:
                cand_obj = log_likelihood(data, w, point(cand))
                if np.isfinite(cand_obj) and cand_obj >= obj + floor * (1.0 + abs(obj)):
                    break
            else:
                slope = gradient(data, w, point(cand)) @ taken
                if np.isfinite(slope) and slope >= floor:
                    break
        else:
            return theta, iterations, "stalled"
        theta = cand
        iterations += 1
        if np.max(np.abs(theta)) > bound:
            raise SeparationError(f"oracle iterate past {bound}")


def weighted_labels_direct(w, y, scale):
    """(w / scale) * y, as n-row arithmetic on the int64 labels."""
    return np.multiply(np.divide(w, scale), np.asarray(y, dtype=np.int64))


def inclusion_divided_direct(scheme, rate, counts, y):
    """counts / pi(y), with pi(y) built for every row: 1 or pi0, and 1 + lambda_n or 1."""
    if scheme == "undersample":
        pi = np.where(y == 1, 1.0, rate)
    else:
        pi = np.where(y == 1, 1.0 + rate, 1.0)
    return counts / pi


def oversample_counts_direct(y, draws):
    """Over-sampling counts y v + 1 from the labels and the Poisson draws v."""
    return np.asarray(y, dtype=np.int64) * draws + 1


def weight_check_message(weights):
    """The message of the two-pass weight check, or None for valid weights.

    Every weight is checked for finiteness first and for its sign second,
    so a nan beside a negative weight is reported as nonfinite.
    """
    w = np.asarray(weights)
    if w.dtype.kind not in "iu":
        w = w.astype(np.float64)
    if not np.all(np.isfinite(w)):
        return "weights must be finite"
    if np.any(w < 0):
        return "weights must be nonnegative"
    return None


def replication_direct(config, s):
    """Replication s of config as (n1, estimates), every kind drawn and fitted on its own.

    Every design is drawn, the pi0 = 1 and lambda_n = 0 ones included, in
    line, on substream (base_seed, s, i) of the first estimator i of its
    scheme and rate, and every kind is fitted through fit_estimator, with
    no estimate taken from another kind.  A fit on a design fitted before
    starts at that design's latest converged estimate; every other fit
    starts at the replication's first converged estimate, or cold before
    there is one.
    """
    from rarelogit import RareLogitError, fit_estimator, realize_design, substream

    data = config.design.draw(config.n, substream(config.base_seed, s))
    designs, latest, anchor, fits = {}, {}, None, []
    for i, kind in enumerate(config.estimators):
        key = None if kind.design_kind is None else (kind.design_kind, kind.rate)
        if key is not None and key not in designs:
            designs[key] = realize_design(kind, data, substream(config.base_seed, s, i))
        try:
            fit = fit_estimator(kind, data, designs.get(key), config.solver, start=latest.get(key, anchor))
        except RareLogitError:
            fit = None
        if fit is None or not fit.converged:
            fits.append(None)
            continue
        fits.append(fit.theta.as_vector())
        if anchor is None:
            anchor = fit.theta
        if key is not None:
            latest[key] = fit.theta
    return data.n1, fits

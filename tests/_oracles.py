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

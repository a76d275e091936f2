"""Synthetic data generators, intercept calibration, and the replication harness.

Two experiment designs are supported: a conditional-Gaussian mixture
(labels first, then one Gaussian covariate per class, whose induced
logistic coefficients follow the discriminant-analysis closed form) and a
marginal-logistic design (covariates first, then Bernoulli labels from the
logistic model).  Each design draws its own data (draw) and gives its own
true coefficients (true_coefficients).  The harness repeats a design over
seeded substreams, fits a list of estimators per replication, and
aggregates each estimator's errors: eMSE, mean and scaled covariance.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorFamily, EstimatorKind, fit_estimator, realize_design
from .model import Coefficients, Dataset, RareLogitError, SolverSettings, _augmented, _expit, _lending
from .sampling import substream

__all__ = [
    "AllReplicationsFailedError",
    "CalibrationError",
    "ConditionalGaussianDesign",
    "EmseReport",
    "EstimatorEmse",
    "ExperimentConfig",
    "GaussianLaw",
    "MarginalLogisticDesign",
    "calibrate_intercept",
    "emse",
    "generate_conditional",
    "generate_marginal",
    "run_experiment",
]

ALPHA_BRACKET = (-50.0, 50.0)
QUAD_RANGE = 16.0
# No numpy standard-normal draw z exceeds 13.71 in magnitude: the ziggurat's
# tail draw is r - log(u)/r with r = 3.654 and u >= 2^-53.  So a covariate
# draw mean + z * sd is finite whenever |mean| + 16 sd is.
NORMAL_DRAW_BOUND = 16.0

_FULL = EstimatorKind(EstimatorFamily.FULL)


class CalibrationError(RareLogitError):
    """Intercept calibration failed to bracket or reach the target rate."""


class AllReplicationsFailedError(RareLogitError):
    """Every replication failed for every estimator; no eMSE is defined."""


@dataclass(frozen=True)
class GaussianLaw:
    """Independent Gaussian covariate components with given means and sds."""

    means: tuple[float, ...]
    sds: tuple[float, ...]

    def __post_init__(self) -> None:
        means = tuple(float(m) for m in self.means)
        sds = tuple(float(s) for s in self.sds)
        if len(means) != len(sds) or len(means) < 1:
            raise ValueError("means and sds must be equal-length, nonempty")
        if not all(math.isfinite(m) for m in means):
            raise ValueError("means must be finite")
        if not all(math.isfinite(s) and s > 0 for s in sds):
            raise ValueError("sds must be positive and finite")
        for m, s in zip(means, sds):
            if not math.isfinite(abs(m) + NORMAL_DRAW_BOUND * s):
                raise ValueError(f"sd {s:g} with mean {m:g} lets a covariate draw overflow")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    @property
    def dim(self) -> int:
        return len(self.means)

    @classmethod
    def standard(cls, d: int = 1) -> "GaussianLaw":
        return cls(means=(0.0,) * d, sds=(1.0,) * d)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.standard_normal((n, self.dim))
        draws *= self.sds
        draws += self.means
        return draws


@dataclass(frozen=True)
class ConditionalGaussianDesign:
    """Labels ~ Bernoulli(target_rate); x | y ~ N(mu_y, sigma^2), one covariate.

    Parameters whose induced coefficients are not finite in floating point
    (sigma^2 underflowing to zero, mu^2 or sigma^2 overflowing) are
    rejected here, before any data are drawn.
    """

    mu1: float
    mu0: float
    sigma: float
    target_rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu1) and math.isfinite(self.mu0)):
            raise ValueError("means must be finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        if not (0.0 < self.target_rate < 1.0):
            raise ValueError("target_rate must be in (0, 1)")
        try:
            self.true_coefficients()
        except (ZeroDivisionError, OverflowError, ValueError):
            raise ValueError(
                f"mu1={self.mu1:g}, mu0={self.mu0:g}, sigma={self.sigma:g} "
                "induce logistic coefficients that are not finite"
            ) from None

    def true_coefficients(self) -> Coefficients:
        """Logistic coefficients induced by the two-Gaussian mixture.

        With P(y=1) = rho and x | y ~ N(mu_y, sigma^2), Bayes' rule gives a
        logistic model with slope (mu1 - mu0)/sigma^2 and intercept
        log(rho/(1-rho)) - (mu1^2 - mu0^2)/(2 sigma^2).
        """
        mu1, mu0, sigma, rho = self.mu1, self.mu0, self.sigma, self.target_rate
        beta = (mu1 - mu0) / sigma**2
        alpha = math.log(rho / (1.0 - rho)) - (mu1**2 - mu0**2) / (2.0 * sigma**2)
        return Coefficients(alpha=alpha, beta=np.array([beta]))

    def draw(self, n: int, rng: np.random.Generator) -> Dataset:
        return generate_conditional(n, self.target_rate, self.mu1, self.mu0, self.sigma, rng)[0]


@dataclass(frozen=True)
class MarginalLogisticDesign:
    """x ~ law; y ~ Bernoulli(p(theta; x)) from the logistic model."""

    theta: Coefficients
    law: GaussianLaw

    def __post_init__(self) -> None:
        if self.theta.beta.shape[0] != self.law.dim:
            raise ValueError("theta and covariate law dimensions differ")
        # bounds |alpha + beta'x| over every draw the law can make
        bound = abs(self.theta.alpha) + sum(
            abs(float(b)) * (abs(m) + NORMAL_DRAW_BOUND * s)
            for b, m, s in zip(self.theta.beta, self.law.means, self.law.sds)
        )
        if not math.isfinite(bound):
            raise ValueError("theta and the covariate law let alpha + beta'x overflow")

    def true_coefficients(self) -> Coefficients:
        return self.theta

    def draw(self, n: int, rng: np.random.Generator) -> Dataset:
        return generate_marginal(n, self.theta, self.law, rng)


def generate_conditional(
    n: int,
    target_rate: float,
    mu1: float,
    mu0: float,
    sigma: float,
    rng: np.random.Generator,
) -> tuple[Dataset, Coefficients]:
    """Draw the conditional-Gaussian design and return its true coefficients."""
    design = ConditionalGaussianDesign(
        mu1=mu1, mu0=mu0, sigma=sigma, target_rate=target_rate
    )
    if n < 1:
        raise ValueError("n must be >= 1")
    y = (rng.random(n) < design.target_rate).astype(np.int64)
    mu = np.where(y == 1, design.mu1, design.mu0)
    x = mu + design.sigma * rng.standard_normal(n)
    # finite 0/1-labelled draws (see ConditionalGaussianDesign): nothing to check
    return Dataset._drawn(_augmented(x[:, None]), y), design.true_coefficients()


def generate_marginal(
    n: int, theta_t: Coefficients, law: GaussianLaw, rng: np.random.Generator
) -> Dataset:
    """Draw covariates from the law, then labels from the logistic model."""
    # the design checks the dimensions and that alpha + beta'x cannot overflow
    MarginalLogisticDesign(theta=theta_t, law=law)
    if n < 1:
        raise ValueError("n must be >= 1")
    x = law.sample(n, rng)
    p = x @ theta_t.beta
    p += theta_t.alpha
    _expit(p)
    y = (rng.random(n) < p).astype(np.int64)
    # x is finite by NORMAL_DRAW_BOUND and y 0/1 by construction: nothing to check
    return Dataset._drawn(_augmented(x), y)


def _quadrature_event_rate(alpha: float, mean: float, sd: float) -> float:
    """E expit(alpha + t) for t ~ N(mean, sd^2), by adaptive quadrature.

    scipy is imported here, on the first calibration, and not with the
    package: no fit, draw or CLI command needs it.
    """
    from scipy.integrate import quad
    from scipy.special import expit

    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(t: float) -> float:
        return float(expit(alpha + mean + sd * t)) * inv_sqrt2pi * math.exp(-0.5 * t * t)

    crossing = -(alpha + mean) / sd
    value, _ = quad(
        integrand,
        -QUAD_RANGE,
        QUAD_RANGE,
        points=[crossing] if abs(crossing) < QUAD_RANGE else None,
        limit=200,
        epsabs=0.0,
        epsrel=1e-11,
    )
    return value


def calibrate_intercept(
    beta: np.ndarray,
    law: GaussianLaw,
    target_rate: float,
    precision: float = 1e-8,
) -> float:
    """Solve E_x[p(alpha, beta)] = target_rate for alpha by monotone bisection.

    The event rate is strictly increasing in alpha, so bisection over
    [-50, 50] converges; it stops at the first alpha whose rate is within
    precision * target_rate of the target.  For the independent Gaussian
    law, beta'x is exactly N(beta'mu, sum_j beta_j^2 sd_j^2), so the rate
    is computed by adaptive quadrature over that normal, for any
    dimension.  With an all-zero slope the closed form log(rho/(1-rho)) is
    returned directly.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    if beta.shape != (law.dim,):
        raise ValueError("beta and covariate law dimensions differ")
    if not (0.0 < target_rate < 1.0):
        raise ValueError("target_rate must be in (0, 1)")
    if not precision > 0:
        raise ValueError("precision must be positive")
    if np.all(beta == 0.0):
        return math.log(target_rate / (1.0 - target_rate))

    mean = float(beta @ np.asarray(law.means))
    sd = float(np.sqrt(np.sum((beta * np.asarray(law.sds)) ** 2)))

    def event_rate(alpha: float) -> float:
        return _quadrature_event_rate(alpha, mean, sd)

    lo, hi = ALPHA_BRACKET
    f_lo = event_rate(lo)
    f_hi = event_rate(hi)
    if not (f_lo <= target_rate <= f_hi):
        raise CalibrationError(
            f"no bracket for rate {target_rate:g} with alpha in [{lo:g}, {hi:g}] "
            f"(rates {f_lo:.3e} .. {f_hi:.3e})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = event_rate(mid)
        if abs(f_mid - target_rate) <= precision * target_rate:
            return mid
        if f_mid < target_rate:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection did not reach precision {precision:g} for rate {target_rate:g}"
    )


def emse(
    estimates: list[Coefficients], theta_t: Coefficients
) -> tuple[float, np.ndarray]:
    """Empirical MSE: mean of ||theta_hat - theta_t||^2 plus componentwise means.

    The total is formed as the sum of the componentwise means, so the
    decomposition total = alpha-part + sum(beta-parts) is an exact identity.
    A squared error or mean that overflows raises OverflowError.
    """
    if len(estimates) == 0:
        raise ValueError("need at least one estimate")
    return _emse(np.stack([est.as_vector() for est in estimates]), theta_t.as_vector())[:2]


def _emse(estimated: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """emse of the stacked estimates, and their error rows estimated - target."""
    if estimated.shape[1] != target.shape[0]:
        raise ValueError("estimate and target dimensions differ")
    with np.errstate(over="ignore"):
        errors = estimated - target
        per_component = np.mean(errors**2, axis=0)
        total = float(per_component[0] + per_component[1:].sum())
    # the components are >= 0, so the total is finite only when each one is
    if not math.isfinite(total):
        raise OverflowError("a squared estimation error is not finite")
    return total, per_component, errors


@dataclass(frozen=True)
class EstimatorEmse:
    """Per-estimator slice of an experiment report, over its successful replications.

    error_mean is the mean of theta_hat_s - theta_t; scaled_cov is the ddof=1
    covariance of sqrt(n1_s) (theta_hat_s - theta_t), n1_s replication s's
    case count, and all NaN with fewer than two successes.  An estimator
    that failed in every replication has failed = reps and NaN statistics.
    """

    kind: EstimatorKind
    emse_total: float
    emse_alpha: float
    emse_beta: tuple[float, ...]
    error_mean: tuple[float, ...]
    scaled_cov: tuple[tuple[float, ...], ...]
    failed: int


@dataclass(frozen=True, eq=False)
class EmseReport:
    """Empirical MSEs, mean errors and scaled covariances for one configuration."""

    entries: tuple[EstimatorEmse, ...]
    reps: int
    mean_n1: float
    theta_t: Coefficients

    def entry(self, kind: EstimatorKind) -> EstimatorEmse:
        for item in self.entries:
            if item.kind == kind:
                return item
        raise KeyError(f"no entry for {kind}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one replicated experiment.

    The harness is a pure function of this object: replication s draws
    its data by design.draw(n, substream(base_seed, s)) and uses substream
    (base_seed, s, i) for the sampling design first needed by estimator i;
    a sampling design is shared by the weighted/bias-corrected variants of
    the same scheme and rate.  The estimators are fitted in the given
    order with the solver settings, from the starts run_experiment
    describes, and every estimate is scored against
    design.true_coefficients().
    """

    design: ConditionalGaussianDesign | MarginalLogisticDesign
    n: int
    reps: int
    estimators: tuple[EstimatorKind, ...]
    base_seed: int
    solver: SolverSettings = SolverSettings()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        estimators = tuple(self.estimators)
        if not estimators:
            raise ValueError("need at least one estimator")
        if isinstance(self.design, ConditionalGaussianDesign):
            if not (0.0 < self.design.target_rate < 0.5):
                raise ValueError("target_rate must be in (0, 0.5)")
        object.__setattr__(self, "estimators", estimators)
        object.__setattr__(self, "base_seed", int(self.base_seed))


@functools.cache
def _one_blas_thread() -> None:
    """Run every OpenBLAS this process has loaded on one thread, once per process.

    It initializes run_experiment's worker processes, which already take
    one core each: a second BLAS thread per worker only oversubscribes the
    cores, and its spin-waits made the pooled sweeps 4-6 times slower on a
    2-core machine.  cli.main calls it before every command: the kernel's
    BLAS calls are one block each, too small to gain from a second thread,
    and beside busy cores a second thread's spin-waits made 100 fits at
    n = 1e5 take 17-35 s instead of 1.5-2.7 s.  Fit bytes do not depend on
    the BLAS thread count, so no output changes.  Where the loaded
    libraries cannot be listed (no /proc/self/maps), it does nothing.

    The package imports no scipy, so this sets numpy's OpenBLAS only,
    which carries every BLAS call of the kernel and the plug-in.  A scipy
    that calibrate_intercept loads later keeps its own default thread
    count; its quad makes no BLAS calls.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in (p for p in paths if ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # plain OpenBLAS, and the prefixed 64- and 32-bit-index builds numpy and scipy ship
        for name in ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                break


def _run_replications(
    config: ExperimentConfig, reps: range
) -> list[tuple[int, list[np.ndarray | None]]]:
    """Replications reps of config, in order, their fits sharing one lent kernel buffer."""
    with _lending():
        return [_run_replication(config, s) for s in reps]


def _run_replication(
    config: ExperimentConfig, s: int
) -> tuple[int, list[np.ndarray | None]]:
    data = config.design.draw(config.n, substream(config.base_seed, s))
    # each drawn design's key and the first estimator that needs it
    first: dict[tuple, int] = {}
    for i, kind in enumerate(config.estimators):
        key = _problem(kind)
        if key is not None:
            first.setdefault(key, i)
    with ThreadPoolExecutor(max_workers=1) as helper:
        designs = {
            key: helper.submit(realize_design, config.estimators[i], data, substream(config.base_seed, s, i))
            for key, i in first.items()
        }
        return data.n1, _fit_estimators(config, data, designs)


def _problem(kind: EstimatorKind) -> tuple | None:
    """The problem kind fits: its design's (scheme, rate), or None for the full data.

    A design at its scheme's identity rate keeps every row once with
    weight 1 and shifts the intercept by 0 (see DesignKind.identity_rate).
    """
    scheme = kind.design_kind
    if scheme is None or kind.rate == scheme.identity_rate:
        return None
    return scheme, kind.rate


def _fit_estimators(
    config: ExperimentConfig, data: Dataset, designs: dict[tuple, Future]
) -> list[np.ndarray | None]:
    """Each estimator's estimate in order, or None where its fit failed."""
    # each problem's latest converged estimate, which starts its next fit;
    # the full-data one, latest[None], is every later full-data kind's estimate
    latest: dict[tuple | None, Coefficients] = {}
    fits: list[np.ndarray | None] = []
    # the first converged estimate; every other later fit starts there
    anchor: Coefficients | None = None
    for kind in config.estimators:
        key = _problem(kind)
        if key is None and None in latest:
            fits.append(latest[None].as_vector())
            continue
        design = None if key is None else designs[key].result()
        try:
            fit = fit_estimator(
                _FULL if key is None else kind, data, design, config.solver, start=latest.get(key, anchor)
            )
        except RareLogitError:
            fit = None
        # a fit that stopped short of the tolerance is a failure, not an estimate
        if fit is None or not fit.converged:
            fits.append(None)
            continue
        fits.append(fit.theta.as_vector())
        if anchor is None:
            anchor = fit.theta
        latest[key] = fit.theta
    return fits


def run_experiment(config: ExperimentConfig, threads: int = 1) -> EmseReport:
    """Run the replicated experiment; report each estimator's errors (see EstimatorEmse).

    Failed replications (separation, one-class subsamples, singular Newton
    systems, fits that did not converge) are left out of an estimator's
    errors and counted in its failed field; an estimator with no success
    gets NaN statistics (see EstimatorEmse), and AllReplicationsFailedError
    is raised only when no estimator has one.  Replications are embarrassingly
    parallel; results are always reduced in replication order, so any
    threads value produces the same report bit for bit.

    In each replication the first estimator that converges is the anchor:
    it starts cold (see fit_mle), as do the fits before it.  A later fit on
    a design the replication has already fitted, such as under-bc at pi0
    after under-w at pi0 on the same subset, starts at that design's latest
    converged estimate; every other later fit starts at the anchor's
    estimate.  Both go through fit_estimator's start, which takes the
    family's intercept shift back off.  Every estimator is consistent for
    the same theta once its shift is applied, so the later fits start
    within O(n1^-1/2) of their optimum, and a fit chained on its own
    design starts closer still.

    A kind at its scheme's identity rate (see DesignKind.identity_rate)
    fits the full estimator's problem bit for bit: every row once, weight
    1, intercept shift 0.  So the full estimator and those kinds share one
    problem, and no design is drawn for them.  Until a fit of it converges, each of them is fitted as the
    full estimator from the anchor (or cold, before the anchor exists);
    every later one takes that estimate without a fit.  Their entries
    thus equal the full-data entry exactly in every estimator order.  The
    one exception is a binding max_iter: a fit that ran out of steps
    before the anchor existed may converge from the anchor, so put the
    full estimator first when max_iter is small.

    A replication that needs sampling designs draws them on one helper
    thread while its fits run, each once on its own substream (see
    ExperimentConfig); an under-sampling draw also gathers its subset
    (see SampleDesign), which the fits on that design share.  A fit takes
    its design when it reaches it, and a draw that raised raises there, so
    the report is the same bit for bit as when the draws ran in line.  The
    helper is joined before the replication returns or raises.  A
    replication of full-data problems only starts no thread.

    The replications run in chunks, each inside one _lending block (see
    model._lending), so after a chunk's first replication no fit
    allocates a kernel buffer or faults in fresh pages for one.
    threads must be >= 1 and counts worker processes, not the helper
    threads: with 1 every replication runs in one chunk in this process.
    With more, the threads worker processes run chunks of
    max(1, reps // (4 threads)) replications, each with its BLAS on one
    thread (see _one_blas_thread).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    reps = range(1, config.reps + 1)
    if threads > 1:
        size = max(1, config.reps // (4 * threads))
        chunks = [reps[i : i + size] for i in range(0, config.reps, size)]
        with ProcessPoolExecutor(max_workers=threads, initializer=_one_blas_thread) as pool:
            done = pool.map(_run_replications, itertools.repeat(config), chunks)
            results = [result for chunk in done for result in chunk]
    else:
        results = _run_replications(config, reps)

    theta_t = config.design.true_coefficients()
    mean_n1 = float(np.mean([n1 for n1, _ in results]))
    successes = [
        [(n1, fits[i]) for n1, fits in results if fits[i] is not None]
        for i in range(len(config.estimators))
    ]
    if not any(successes):
        raise AllReplicationsFailedError(f"all {config.reps} replications failed for every estimator")
    k = theta_t.as_vector().shape[0]
    entries = []
    for kind, done in zip(config.estimators, successes):
        total, comps, error_mean, cov = np.nan, np.full(k, np.nan), np.full(k, np.nan), np.full((k, k), np.nan)
        if done:
            total, comps, errors = _emse(np.stack([fit for _, fit in done]), theta_t.as_vector())
            error_mean = errors.mean(axis=0)
            if len(done) > 1:
                cov = np.cov((np.sqrt([n1 for n1, _ in done])[:, None] * errors).T)
        entries.append(
            EstimatorEmse(
                kind=kind,
                emse_total=total,
                emse_alpha=float(comps[0]),
                emse_beta=tuple(float(c) for c in comps[1:]),
                error_mean=tuple(error_mean.tolist()),
                scaled_cov=tuple(map(tuple, cov.tolist())),
                failed=config.reps - len(done),
            )
        )
    return EmseReport(
        entries=tuple(entries), reps=config.reps, mean_n1=mean_n1, theta_t=theta_t
    )

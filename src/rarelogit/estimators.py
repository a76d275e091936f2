"""The five point estimators for rare-events logistic regression.

Each estimator is one weighted logistic MLE, plus an exact shift of the
fitted intercept for the bias-corrected families.  With delta_i the counts
of a realized design and pi(y) its inclusion probability (see sampling):

    family    design       row weights        intercept shift
    full      none         1                  none
    under-w   undersample  delta_i / pi(y_i)  none
    under-bc  undersample  delta_i            log(pi(0) / pi(1))
    over-w    oversample   delta_i / pi(y_i)  none
    over-bc   oversample   delta_i            log(pi(0) / pi(1))

An under-sampled fit runs on the selected rows only, gathered from the
dataset's z' once per design; an over-sampled fit runs on every row with
its count as a weight.  The shift follows convergence, so diagnostics describe
the unshifted fit and the pair fitted on one design is deterministic.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    Coefficients,
    Dataset,
    FitResult,
    RareLogitError,
    SolverSettings,
    fit_mle,
)
from .sampling import DesignKind, SampleDesign, oversample, undersample

__all__ = [
    "EstimatorFamily",
    "EstimatorKind",
    "NoControlsSelectedError",
    "fit_estimator",
    "full_mle",
    "over_bias_corrected",
    "over_weighted",
    "realize_design",
    "under_bias_corrected",
    "under_weighted",
]


class NoControlsSelectedError(RareLogitError):
    """An under-sampling draw selected no controls: the subsample MLE fails."""


class EstimatorFamily(enum.Enum):
    FULL = "full"
    UNDER_WEIGHTED = "under-w"
    UNDER_BIAS_CORRECTED = "under-bc"
    OVER_WEIGHTED = "over-w"
    OVER_BIAS_CORRECTED = "over-bc"

    @property
    def design_kind(self) -> DesignKind | None:
        """The sampling design the family fits on (None for the full data)."""
        return _ESTIMATORS[self].design


class _Estimator(NamedTuple):
    """The family's design; weighted divides the counts by pi(y), else the intercept shifts."""

    design: DesignKind | None
    weighted: bool


_ESTIMATORS = {
    EstimatorFamily.FULL: _Estimator(None, False),
    EstimatorFamily.UNDER_WEIGHTED: _Estimator(DesignKind.UNDERSAMPLE, True),
    EstimatorFamily.UNDER_BIAS_CORRECTED: _Estimator(DesignKind.UNDERSAMPLE, False),
    EstimatorFamily.OVER_WEIGHTED: _Estimator(DesignKind.OVERSAMPLE, True),
    EstimatorFamily.OVER_BIAS_CORRECTED: _Estimator(DesignKind.OVERSAMPLE, False),
}


@dataclass(frozen=True)
class EstimatorKind:
    """Estimator family tag plus its sampling rate (pi0 or lambda_n)."""

    tag: EstimatorFamily
    rate: float | None = None

    def __post_init__(self) -> None:
        if self.design_kind is None:
            if self.rate is not None:
                raise ValueError("the full-data estimator takes no rate")
            return
        if self.rate is None:
            raise ValueError(f"{self.tag.value} requires a sampling rate")
        object.__setattr__(self, "rate", self.design_kind.check_rate(self.rate))

    @property
    def design_kind(self) -> DesignKind | None:
        return self.tag.design_kind


def full_mle(data: Dataset, settings: SolverSettings = SolverSettings()) -> FitResult:
    """MLE on the full data (unit weights)."""
    return fit_estimator(EstimatorKind(EstimatorFamily.FULL), data, None, settings)


def under_weighted(
    data: Dataset, design: SampleDesign, settings: SolverSettings = SolverSettings()
) -> FitResult:
    """Fit on the selected rows with inverse-probability weights 1/pi_i."""
    kind = EstimatorKind(EstimatorFamily.UNDER_WEIGHTED, design.rate)
    return fit_estimator(kind, data, design, settings)


def under_bias_corrected(
    data: Dataset, design: SampleDesign, settings: SolverSettings = SolverSettings()
) -> FitResult:
    """Unweighted fit on the selected rows, then shift the intercept by log(pi0)."""
    kind = EstimatorKind(EstimatorFamily.UNDER_BIAS_CORRECTED, design.rate)
    return fit_estimator(kind, data, design, settings)


def over_weighted(
    data: Dataset, design: SampleDesign, settings: SolverSettings = SolverSettings()
) -> FitResult:
    """Fit with weights tau_i / (1 + lambda_n y_i)."""
    kind = EstimatorKind(EstimatorFamily.OVER_WEIGHTED, design.rate)
    return fit_estimator(kind, data, design, settings)


def over_bias_corrected(
    data: Dataset, design: SampleDesign, settings: SolverSettings = SolverSettings()
) -> FitResult:
    """Fit with count weights tau_i, then shift the intercept by -log(1 + lambda_n).

    Count weights reproduce the objective of materializing the replicated
    rows without the memory cost.
    """
    kind = EstimatorKind(EstimatorFamily.OVER_BIAS_CORRECTED, design.rate)
    return fit_estimator(kind, data, design, settings)


def realize_design(
    kind: EstimatorKind, data: Dataset, rng: np.random.Generator
) -> SampleDesign | None:
    """Draw the sampling design an estimator kind calls for (None for full)."""
    if kind.design_kind is DesignKind.UNDERSAMPLE:
        return undersample(data, kind.rate, rng)
    if kind.design_kind is DesignKind.OVERSAMPLE:
        return oversample(data, kind.rate, rng)
    return None


def fit_estimator(
    kind: EstimatorKind,
    data: Dataset,
    design: SampleDesign | None = None,
    settings: SolverSettings = SolverSettings(),
    *,
    start: Coefficients | None = None,
) -> FitResult:
    """Fit the estimator named by kind on a realized design.

    One weighted MLE over the rows the design uses, then the family's
    exact intercept shift at the design's rate.  An under-sampling design
    hands the solver its selected rows only, an over-sampling design every
    row with its count (see SampleDesign.select).  The weights (the counts,
    divided by pi(y) for the weighted families) and the shift come from
    the design's kind, rate and counts and the labels.  A design of
    another kind or rate than kind's raises ValueError.  The design is
    ignored for the full-data estimator.

    start, when given, is a point on the scale of the returned theta, such
    as another estimator's estimate on the same data.  The solver starts at
    start with the family's intercept shift taken back off, so every family
    starts next to its own optimum.  By default it starts at the weighted
    case log-odds (see fit_mle).
    """
    row = _ESTIMATORS[kind.tag]
    shift = None
    used = data
    if row.design is None:
        weights = np.ones(data.n)
    else:
        if design is None:
            raise ValueError(f"{kind.tag.value} requires a realized design")
        if design.kind is not row.design:
            raise ValueError(f"{kind.tag.value} needs an {row.design.value} design")
        if design.rate != kind.rate:
            raise ValueError(
                f"{kind.tag.value} at rate {kind.rate:g} was given a design drawn at {design.rate:g}"
            )
        if design.n != data.n:
            raise ValueError("design and dataset lengths differ")
        used, weights = design.select(data)
        if design.kind is DesignKind.UNDERSAMPLE and used.n0 == 0:
            raise NoControlsSelectedError(
                f"no controls selected at pi0={design.rate:g} (n0={data.n0})"
            )
        if row.weighted:
            weights = design.kind.divide_by_inclusion(design.rate, used, weights)
        else:
            shift = design.kind.intercept_shift(design.rate)
    if start is not None and shift is not None:
        start = Coefficients(start.alpha - shift, start.beta)
    fit = fit_mle(used, weights, init=start, settings=settings)
    if shift is None:
        return fit
    shifted = Coefficients(fit.theta.alpha + shift, fit.theta.beta)
    return dataclasses.replace(fit, theta=shifted)

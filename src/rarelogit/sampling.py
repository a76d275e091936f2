"""Randomized sampling designs for imbalanced data.

Two plans are supported: Bernoulli under-sampling of controls (keep every
case, keep each control independently with probability pi0) and Poisson
over-sampling of cases (use each case 1 + Poisson(lambda_n) times, each
control once).  A plan's rate enters the estimators only through pi(y),
the expected count of a row with label y.  Weighted estimators divide the
counts by pi(y); bias-corrected ones shift the intercept by
log(pi(0) / pi(1)) (King & Zeng's prior correction).  DesignKind holds
these rules:

    scheme       rate       pi(y)               log(pi(0) / pi(1))
    undersample  pi0        pi0 + (1 - pi0) y   log(pi0)
    oversample   lambda_n   1 + lambda_n y      -log(1 + lambda_n)

A realized plan is stored as counts plus their pi(y) for all n rows, so
the design stays index-aligned with its parent dataset.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset

__all__ = [
    "DesignKind",
    "SampleDesign",
    "effective_sample_size",
    "oversample",
    "substream",
    "undersample",
]


def substream(base_seed: int, *path: int) -> np.random.Generator:
    """Independent reproducible random stream for (base_seed, *path).

    Streams are derived by keying a SeedSequence with the base seed as
    entropy and the path as spawn key, so distinct paths give statistically
    independent generators and the mapping is deterministic.
    """
    seq = np.random.SeedSequence(
        entropy=int(base_seed), spawn_key=tuple(int(p) for p in path)
    )
    return np.random.default_rng(seq)


class DesignKind(enum.Enum):
    """A sampling scheme: the range of its rate, its pi(y) and its intercept shift."""

    UNDERSAMPLE = "undersample"
    OVERSAMPLE = "oversample"

    def check_rate(self, rate: float) -> float:
        """rate as a float, or ValueError when it is out of the scheme's range.

        pi0 = 0 is rejected: an all-case subsample admits no MLE.
        """
        rate = float(rate)
        if self is DesignKind.UNDERSAMPLE:
            if not 0.0 < rate <= 1.0:
                raise ValueError(f"pi0 must be in (0, 1], got {rate}")
        elif not rate >= 0.0:
            raise ValueError(f"lambda_n must be >= 0, got {rate}")
        return rate

    def inclusion_weight(self, rate: float, y: np.ndarray) -> np.ndarray:
        """pi(y_i) for each label: the denominators of the inverse-probability weights."""
        if self is DesignKind.UNDERSAMPLE:
            return np.where(y == 1, 1.0, rate)
        return np.where(y == 1, 1.0 + rate, 1.0)

    def intercept_shift(self, rate: float) -> float:
        """log(pi(0) / pi(1)): log(pi0), or -log(1 + lambda_n)."""
        if self is DesignKind.UNDERSAMPLE:
            return math.log(rate)
        return -math.log1p(rate)


@dataclass(frozen=True, eq=False)
class SampleDesign:
    """A realized sampling plan.

    indicators[i] is the number of times row i enters the subsample: 0/1
    selection flags for under-sampling, replication counts >= 1 for
    over-sampling.  inclusion_weight[i] is pi(y_i), the conditional
    expectation of indicators[i] given the data, so each entry is one of
    the rate's two values pi(0) and pi(1).
    """

    kind: DesignKind
    rate: float
    indicators: np.ndarray
    inclusion_weight: np.ndarray

    def __post_init__(self) -> None:
        rate = self.kind.check_rate(self.rate)
        ind = np.asarray(self.indicators, dtype=np.int64)
        wgt = np.asarray(self.inclusion_weight, dtype=np.float64)
        if ind.ndim != 1 or wgt.shape != ind.shape:
            raise ValueError("indicators and inclusion_weight must be equal-length vectors")
        if self.kind is DesignKind.UNDERSAMPLE:
            if not np.all((ind == 0) | (ind == 1)):
                raise ValueError("under-sampling indicators must be 0/1")
        elif not np.all(ind >= 1):
            raise ValueError("over-sampling counts must be >= 1")
        control, case = self.kind.inclusion_weight(rate, np.arange(2))
        if not np.all((wgt == control) | (wgt == case)):
            raise ValueError(f"inclusion weights must be pi(0)={control:g} or pi(1)={case:g}")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "indicators", ind)
        object.__setattr__(self, "inclusion_weight", wgt)

    @property
    def n(self) -> int:
        return self.indicators.shape[0]


def undersample(data: Dataset, pi0: float, rng: np.random.Generator) -> SampleDesign:
    """Keep all cases; keep each control independently with probability pi0.

    Indicators follow delta_i = y_i + (1 - y_i) 1{u_i <= pi0} with u_i iid
    uniform(0, 1) drawn from rng.
    """
    kind = DesignKind.UNDERSAMPLE
    pi0 = kind.check_rate(pi0)
    u = rng.random(data.n)
    ind = np.where(data.y == 1, 1, (u <= pi0).astype(np.int64))
    wgt = kind.inclusion_weight(pi0, data.y)
    return SampleDesign(kind=kind, rate=pi0, indicators=ind, inclusion_weight=wgt)


def oversample(data: Dataset, lambda_n: float, rng: np.random.Generator) -> SampleDesign:
    """Use each case 1 + Poisson(lambda_n) times and each control once.

    Counts follow tau_i = y_i v_i + 1 with v_i iid Poisson(lambda_n) drawn
    from rng.
    """
    kind = DesignKind.OVERSAMPLE
    lambda_n = kind.check_rate(lambda_n)
    v = rng.poisson(lam=lambda_n, size=data.n)
    ind = data.y * v + 1
    wgt = kind.inclusion_weight(lambda_n, data.y)
    return SampleDesign(kind=kind, rate=lambda_n, indicators=ind, inclusion_weight=wgt)


def effective_sample_size(design: SampleDesign) -> int:
    """Realized number of data points used: the sum of the indicators."""
    return int(design.indicators.sum())

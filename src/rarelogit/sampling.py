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

A realized plan is its kind, its rate and one count per row of its parent
dataset, index-aligned with it.  It stores no pi(y): a fit computes pi(y)
from the kind and rate, so the two cannot disagree.
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
        elif rate == math.inf:
            raise ValueError(f"lambda_n must be finite, got {rate}")
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
    """A realized sampling plan: its kind, its rate and a count for every row.

    indicators[i] is the number of times row i enters the subsample: 0/1
    selection flags for under-sampling, replication counts >= 1 for
    over-sampling.  Its conditional expectation given the data is pi(y_i),
    which DesignKind.inclusion_weight computes from the kind and rate.
    """

    kind: DesignKind
    rate: float
    indicators: np.ndarray

    def __post_init__(self) -> None:
        rate = self.kind.check_rate(self.rate)
        ind = np.asarray(self.indicators)
        if ind.ndim != 1:
            raise ValueError(f"indicators must be a vector, got ndim={ind.ndim}")
        if ind.dtype.kind not in "biu" and not np.all(np.isfinite(ind) & (ind == np.floor(ind))):
            raise ValueError("indicators must be finite whole-number counts")
        ind = np.asarray(ind, dtype=np.int64)
        if self.kind is DesignKind.UNDERSAMPLE:
            if not np.all((ind == 0) | (ind == 1)):
                raise ValueError("under-sampling indicators must be 0/1")
        elif not np.all(ind >= 1):
            raise ValueError("over-sampling counts must be >= 1")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "indicators", ind)

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
    return SampleDesign(kind=kind, rate=pi0, indicators=ind)


def oversample(data: Dataset, lambda_n: float, rng: np.random.Generator) -> SampleDesign:
    """Use each case 1 + Poisson(lambda_n) times and each control once.

    Counts follow tau_i = y_i v_i + 1 with v_i iid Poisson(lambda_n) drawn
    from rng.
    """
    kind = DesignKind.OVERSAMPLE
    lambda_n = kind.check_rate(lambda_n)
    v = rng.poisson(lam=lambda_n, size=data.n)
    ind = data.y * v + 1
    return SampleDesign(kind=kind, rate=lambda_n, indicators=ind)


def effective_sample_size(design: SampleDesign) -> int:
    """Realized number of data points used: the sum of the indicators."""
    return int(design.indicators.sum())

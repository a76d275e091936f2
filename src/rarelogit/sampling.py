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

A realized plan is bound to the dataset it was drawn on, its parent.  It
holds its kind, its rate and the rows its fits read: for under-sampling
the selected rows, gathered from the parent once when the plan is made,
and for over-sampling the parent itself with one count per row.  The
plan stores no pi(y): a fit computes pi(y) from the kind and rate, so the
two cannot disagree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _check_constant, _check_count

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
    independent generators and the mapping is deterministic.  The seed
    and each path entry are integers, not bools, of at least 0; anything
    else raises ValueError.
    """
    _check_count("base_seed", base_seed, 0)
    for i, entry in enumerate(path):
        _check_count(f"path[{i}]", entry, 0)
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
        if self is DesignKind.OVERSAMPLE:
            return _check_constant("lambda_n", rate)
        rate = float(rate)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"pi0 must be in (0, 1], got {rate}")
        return rate

    @property
    def identity_rate(self) -> float:
        """The rate at which pi(y) = 1 for both labels: pi0 = 1, or lambda_n = 0.

        A design drawn at it keeps every row exactly once, whatever the
        stream: rng.random is always below 1, and Poisson(0) is always 0.
        So its fits are the full-data fits (see run_experiment).
        """
        return 1.0 if self is DesignKind.UNDERSAMPLE else 0.0

    def inclusion_weight(self, rate: float, y: np.ndarray) -> np.ndarray:
        """pi(y_i) for each label: the denominators of the inverse-probability weights."""
        if self is DesignKind.UNDERSAMPLE:
            return np.where(y == 1, 1.0, rate)
        return np.where(y == 1, 1.0 + rate, 1.0)

    def divide_by_inclusion(self, rate: float, data: Dataset, counts: np.ndarray) -> np.ndarray:
        """counts / pi(y) for the rows of data, as float64, without building pi(y).

        pi(y) is 1 on one class (the cases of an under-sampling design, the
        controls of an over-sampling one) and one scalar on the other, so
        only that class is divided.  The bits are those of
        counts / inclusion_weight(rate, data.y).
        """
        counts, cases = np.asarray(counts), data._cases
        if self is DesignKind.UNDERSAMPLE:
            weights = np.divide(counts, rate, dtype=np.float64)
            weights[cases] = counts[cases]
            return weights
        weights = counts.astype(np.float64)
        weights[cases] /= 1.0 + rate
        return weights

    def intercept_shift(self, rate: float) -> float:
        """log(pi(0) / pi(1)): log(pi0), or -log(1 + lambda_n)."""
        if self is DesignKind.UNDERSAMPLE:
            return math.log(rate)
        return -math.log1p(rate)


@dataclass(frozen=True, eq=False, init=False)
class SampleDesign:
    """A sampling plan realized on one dataset, its parent, and fixed from then on.

    It holds its kind, its rate, its parent and data, the rows its fits
    read.  An under-sampling plan holds rows, the increasing indices of the
    rows it selects, and its data are those rows, gathered from the
    parent's zt once when the plan is made (the parent itself when every
    row is selected).  An over-sampling plan holds counts, the number of
    times each row of the parent enters the subsample (>= 1), and its data
    is the parent.  SampleDesign(data, kind, rate, indicators) takes either
    as indicators, one count per row of data (0/1 selection flags for
    under-sampling), and the indicators property gives them back in that
    form.  A count's conditional expectation given the data is pi(y_i),
    which DesignKind.inclusion_weight computes from the kind and rate, and
    DesignKind.divide_by_inclusion divides a fit's counts by.
    """

    parent: Dataset
    data: Dataset
    kind: DesignKind
    rate: float
    rows: np.ndarray | None
    counts: np.ndarray | None

    def __init__(self, data: Dataset, kind: DesignKind, rate: float, indicators: np.ndarray) -> None:
        rate = kind.check_rate(rate)
        ind = np.asarray(indicators)
        if ind.ndim != 1:
            raise ValueError(f"indicators must be a vector, got ndim={ind.ndim}")
        if ind.shape[0] != data.n:
            raise ValueError(f"indicators must have one count per row: got {ind.shape[0]} for {data.n} rows")
        if ind.dtype.kind not in "biu" and not np.all(np.isfinite(ind) & (ind == np.floor(ind))):
            raise ValueError("indicators must be finite whole-number counts")
        ind = np.asarray(ind, dtype=np.int64)
        if kind is DesignKind.UNDERSAMPLE:
            if not np.all((ind == 0) | (ind == 1)):
                raise ValueError("under-sampling indicators must be 0/1")
            held = {"rows": np.flatnonzero(ind)}
        elif not np.all(ind >= 1):
            raise ValueError("over-sampling counts must be >= 1")
        else:
            held = {"counts": ind}
        self._hold(data, kind, rate, **held)

    @classmethod
    def _drawn(cls, parent: Dataset, kind: DesignKind, rate: float, **held: np.ndarray) -> "SampleDesign":
        """A design whose rows or counts are valid by construction: no checks."""
        design = cls.__new__(cls)
        design._hold(parent, kind, rate, **held)
        return design

    def _hold(self, parent, kind, rate, rows=None, counts=None) -> None:
        data = parent if rows is None or rows.shape[0] == parent.n else parent.take(rows)
        for name, value in (("parent", parent), ("data", data), ("kind", kind), ("rate", rate),
                            ("rows", rows), ("counts", counts)):
            object.__setattr__(self, name, value)

    @property
    def indicators(self) -> np.ndarray:
        """The count of every row of the parent dataset, as int64."""
        if self.rows is None:
            return self.counts
        ind = np.zeros(self.parent.n, dtype=np.int64)
        ind[self.rows] = 1
        return ind


def undersample(data: Dataset, pi0: float, rng: np.random.Generator) -> SampleDesign:
    """Keep all cases; keep each control independently with probability pi0.

    Row i is selected when delta_i = y_i + (1 - y_i) 1{u_i <= pi0} is one,
    with u_i iid uniform(0, 1) drawn from rng.  The selected rows are
    gathered here, once, as the design's data (see SampleDesign).
    """
    kind = DesignKind.UNDERSAMPLE
    pi0 = kind.check_rate(pi0)
    u = rng.random(data.n)
    rows = np.flatnonzero((data.y == 1) | (u <= pi0))
    return SampleDesign._drawn(data, kind, pi0, rows=rows)


def oversample(data: Dataset, lambda_n: float, rng: np.random.Generator) -> SampleDesign:
    """Use each case 1 + Poisson(lambda_n) times and each control once.

    Counts follow tau_i = y_i v_i + 1 with v_i iid Poisson(lambda_n) drawn
    from rng.
    """
    kind = DesignKind.OVERSAMPLE
    lambda_n = kind.check_rate(lambda_n)
    counts = rng.poisson(lam=lambda_n, size=data.n)
    np.multiply(counts, data.y, out=counts)
    counts += 1
    return SampleDesign._drawn(data, kind, lambda_n, counts=counts)


def effective_sample_size(design: SampleDesign) -> int:
    """Realized number of data points used: the sum of the indicators."""
    if design.rows is None:
        return int(design.counts.sum())
    return design.rows.shape[0]

"""Logistic regression for massive data with rare events.

Point estimation on imbalanced binary data: the full-data MLE, control
under-sampling and case over-sampling estimators with exact intercept
bias corrections, their asymptotic covariance matrices, and a seeded
Monte Carlo harness for replicated experiments.
"""

__version__ = "0.1.0"

from . import asymptotics, estimators, model, sampling, simulation
from .asymptotics import *
from .estimators import *
from .model import *
from .sampling import *
from .simulation import *

# each public name is declared once, in its module's __all__
__all__ = []
__all__ += asymptotics.__all__
__all__ += estimators.__all__
__all__ += model.__all__
__all__ += sampling.__all__
__all__ += simulation.__all__

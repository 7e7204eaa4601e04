"""Nonparametric kernel regression for dyadic (pairwise network) data."""

__version__ = "0.1.0"

from . import dgp, decomposition, estimator, kernels, minimax, rates  # noqa: F401
from .errors import (AssumptionViolation, ConfigError, DyadregError,  # noqa: F401
                     PackingDegenerate, QuadratureFailure)

"""Empirical-CDF statistics for sampled value sequences."""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptySample
from .spectral import StepCDF

# Asymptotic quantiles of the Kolmogorov distribution; the threshold at level
# gamma is c(gamma)/sqrt(n).  These are standard table constants, not fitted.
KOLMOGOROV_QUANTILE = {0.90: 1.22, 0.95: 1.36, 0.99: 1.63}


def ks_statistic(samples, cdf: StepCDF) -> float:
    """sup_r |empirical CDF - F| for a step target, evaluated at the jumps.

    For a step CDF the supremum is attained at an atom, approaching from the
    left or sitting on it, so scanning both one-sided values at each support
    point is exact: one ``searchsorted`` per side over all support points.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise EmptySample("KS statistic needs at least one sample")
    points, levels = np.array(cdf.support), np.array(cdf.levels)
    at = np.searchsorted(x, points, side="right") / n - levels
    below = np.searchsorted(x, points, side="left") / n - np.r_[0.0, levels[:-1]]
    return float(np.abs(np.r_[at, below]).max())


def ks_threshold(n: int, level: float = 0.99) -> float:
    if level not in KOLMOGOROV_QUANTILE:
        raise KeyError(f"tabulated levels: {sorted(KOLMOGOROV_QUANTILE)}")
    return KOLMOGOROV_QUANTILE[level] / math.sqrt(n)

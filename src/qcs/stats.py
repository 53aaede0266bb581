"""Empirical-CDF statistics for sampled value sequences."""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptySample
from .spectral import StepCDF


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


def ks_threshold(n: int) -> float:
    """The KS statistic's 99% band for n samples, 1.63 / sqrt(n): 1.63 is
    the asymptotic 99% quantile of the Kolmogorov distribution, a standard
    table constant, not fitted."""
    return 1.63 / math.sqrt(n)

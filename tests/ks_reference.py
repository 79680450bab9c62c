"""Two-sample Kolmogorov-Smirnov statistic and critical value for the tests.

The library's one KS routine, ``stats.ks_distance_to_survival``, compares a
sample with a survival curve.  Comparing two samples (one sampler against
the other, or a sample against a Monte Carlo reference) is only done by the
tests, so these two helpers live here.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def ks_statistic_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(n1: int, n2: int, alpha: float = 0.01) -> float:
    """Large-sample two-sample KS critical value c(alpha) sqrt((n1+n2)/(n1 n2)).

    c(alpha) = sqrt(-ln(alpha/2) / 2); c(0.01) is about 1.628.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("sample sizes must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))

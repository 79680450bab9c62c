"""Empirical survival curves and Kolmogorov-Smirnov distances."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EccdfCurve",
    "empirical_survival",
    "eccdf",
    "ks_distance_to_survival",
]


@dataclass(frozen=True)
class EccdfCurve:
    """Survival curve as sorted (x, P[value > x]) points."""

    x: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        s = np.asarray(self.survival, dtype=float)
        if x.ndim != 1 or x.shape != s.shape:
            raise ValueError("curve needs matching 1-d x and survival arrays")
        if x.size and np.any(np.diff(x) < 0):
            raise ValueError("curve x grid must be sorted ascending")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "survival", s)

    def __len__(self) -> int:
        return self.x.size


def empirical_survival(values: Sequence[float], xs: Sequence[float]) -> np.ndarray:
    """Fraction of values strictly greater than each grid point."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("no values to build a survival curve from")
    xs = np.asarray(xs, dtype=float)
    exceed = values.size - np.searchsorted(values, xs, side="right")
    return exceed / values.size


def eccdf(values: Sequence[float]) -> EccdfCurve:
    """Empirical survival curve at the sorted set of values."""
    xs = np.unique(np.asarray(values, dtype=float))
    return EccdfCurve(xs, empirical_survival(values, xs))


def ks_distance_to_survival(values: Sequence[float], survival: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the sample ECCDF and a continuous survival curve.

    The supremum over the whole line is attained at sample points, comparing
    the step function on both sides of each jump.
    """
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise ValueError("no values to compare")
    n = values.size
    s_theory = np.asarray(survival(values), dtype=float)
    above = 1.0 - np.arange(n) / n          # ECCDF just left of each point
    below = 1.0 - np.arange(1, n + 1) / n   # ECCDF at/right of each point
    return float(
        max(np.max(np.abs(above - s_theory)), np.max(np.abs(below - s_theory)))
    )

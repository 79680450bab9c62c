"""Moment recovery by Gauss-Legendre quadrature of the segment survival function.

The survival function of the k-th largest segment is a polynomial of degree
n-1 on each panel between its kinks, the points x = 1/m (m = k..n) where a
positive-part kernel switches off; the survival kernel evaluates exactly those
panel polynomials.  Gauss-Legendre with floor((n+p)/2)+1 nodes per panel
integrates x^p times that polynomial exactly, so the only error is the
rounding of the survival values (within ``orderstats.SURVIVAL_TOL`` = 1e-13
each) and of the weighted sum.  All nodes go through one survival-kernel call.
These integrals cross-check the panel polynomials against the closed-form
harmonic moments, which they do not share any code with:

    E[z_(k)]   = integral of   P[z_(k) > x]       over [0, 1/k]
    E[z_(k)^2] = integral of 2 x P[z_(k) > x]     over [0, 1/k]
"""

from __future__ import annotations

import numpy as np

from .orderstats import _check_rank, ccdf_kth_largest_grid

__all__ = ["integrate_survival", "mean_via_quadrature", "second_moment_via_quadrature"]


def integrate_survival(n: int, k: int, *, weight_power: int = 0) -> float:
    """Integrate x**weight_power * P[z_(k) > x] over the support [0, 1/k]."""
    _check_rank(n, k)
    nodes, weights = np.polynomial.legendre.leggauss((n + weight_power) // 2 + 1)
    edges = np.array([0.0] + [1.0 / m for m in range(n, k - 1, -1)])  # 0 < 1/n < ... < 1/k
    half = np.diff(edges)[:, None] / 2.0
    xs = edges[:-1, None] + half * (1.0 + nodes)
    integrand = xs**weight_power * ccdf_kth_largest_grid(n, k, xs)
    return float(np.sum(half * weights * integrand))


def mean_via_quadrature(n: int, k: int) -> float:
    """E[z_(k)] recovered from the survival function."""
    return integrate_survival(n, k, weight_power=0)


def second_moment_via_quadrature(n: int, k: int) -> float:
    """E[z_(k)^2] recovered as the integral of 2 x * survival."""
    return 2.0 * integrate_survival(n, k, weight_power=1)

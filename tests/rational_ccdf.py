"""Exact-rational oracles for the segment order-statistic laws.

Every Python float is an exact rational, so evaluating the survival sums
with ``fractions.Fraction`` gives the mathematically exact value at the
same input the library sees.  Two independent forms are provided:

``ccdf_compact_exact``
    the classical at-least-k inclusion-exclusion closed form
    sum_{j=k}^{n} (-1)^(j-k) C(j-1, k-1) C(n, j) (1 - j x)_+^(n-1),
    the sum the library's kernel evaluates, here without rounding, so it
    certifies the kernel's stated accuracy;

``ccdf_exact``
    a double sum, survival of at-least-one minus the exactly-j corrections:
    an algebraically different arrangement of the same inclusion-exclusion,
    which certifies the closed form itself.

``mean_exact`` and ``second_moment_exact`` are the harmonic closed forms in
exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _kernel(m: int, x: Fraction, power: int) -> Fraction:
    base = 1 - m * x
    if base <= 0:
        return Fraction(0)
    return base**power


def ccdf_exact(n: int, k: int, x) -> Fraction:
    x = Fraction(x)
    if x <= 0:
        return Fraction(1)
    if k * x >= 1:
        return Fraction(0)
    power = n - 1
    total = Fraction(0)
    for j in range(1, k):
        inner = Fraction(0)
        for ell in range(0, n - j + 1):
            term = comb(n - j, ell) * _kernel(j + ell, x, power)
            inner += term if ell % 2 == 1 else -term
        total += comb(n, j) * inner
    for ell in range(1, n + 1):
        term = comb(n, ell) * _kernel(ell, x, power)
        total += term if ell % 2 == 1 else -term
    return total


def ccdf_compact_exact(n: int, k: int, x) -> Fraction:
    x = Fraction(x)
    if x <= 0:
        return Fraction(1)
    if k * x >= 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(k, n + 1):
        kernel = _kernel(j, x, n - 1)
        if kernel == 0:
            break
        total += (-1) ** (j - k) * comb(j - 1, k - 1) * comb(n, j) * kernel
    return total


def partial_harmonic_exact(n: int, k: int) -> Fraction:
    return sum(Fraction(1, j) for j in range(k, n + 1))


def mean_exact(n: int, k: int) -> Fraction:
    return partial_harmonic_exact(n, k) / n


def second_moment_exact(n: int, k: int) -> Fraction:
    total = sum(partial_harmonic_exact(n, j) / j for j in range(k, n + 1))
    return Fraction(2, n * (n + 1)) * total

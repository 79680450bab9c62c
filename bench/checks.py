"""Output checks for the benchmark workloads.

Theory values are checked against exact rational arithmetic: the classical
at-least-k sum

    P[z_(k) > x] = sum_{j=k}^{n} (-1)^(j-k) C(j-1, k-1) C(n, j) (1 - j x)_+^(n-1)

evaluated in ``fractions.Fraction`` at the float x the library saw.  These
checks never call the library's kernels, so they cost the library nothing.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from math import comb
from typing import Mapping

# Absolute tolerance every theory value must meet against exact rationals.
# The seed code's double-precision survival sum is off by up to about 2e-7
# at n = 20 (the largest n it evaluates in doubles), so 1e-6 holds with a
# margin of five.
THEORY_TOL = 1e-6
# Largest gap, in standard errors, between an estimate and its theory value.
MAX_GAP_SE = 5.0
# Kolmogorov-Smirnov level of the survival-curve check.
KS_ALPHA = 0.01


def exact_ccdf(n: int, k: int, x: float) -> Fraction:
    """P[z_(k) > x] for n segments, exactly, at the rational value of x."""
    x = Fraction(x)
    if x <= 0:
        return Fraction(1)
    if k * x >= 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(k, n + 1):
        base = 1 - j * x
        if base <= 0:
            break
        term = comb(j - 1, k - 1) * comb(n, j) * base ** (n - 1)
        total += term if (j - k) % 2 == 0 else -term
    return total


def exact_mean(n: int, k: int) -> Fraction:
    return sum(Fraction(1, j) for j in range(k, n + 1)) / n


def exact_second_moment(n: int, k: int) -> Fraction:
    tail = Fraction(0)
    total = Fraction(0)
    for j in range(n, k - 1, -1):
        tail += Fraction(1, j)
        total += tail / j
    return Fraction(2, n * (n + 1)) * total


def rank_label(selector) -> str:
    """Selector as analyze names it in curve file names."""
    return "longshot" if selector == "longshot" else str(int(selector))


def rank_of(n: int, selector) -> int:
    return n if selector == "longshot" else int(selector)


def exact_mixture(counts: Mapping[int, int], statistic: str, selector=None, x=None) -> Fraction:
    """Field-size mixture of a statistic over ``counts``, exactly."""
    total = sum(counts.values())
    acc = Fraction(0)
    for n, count in counts.items():
        k = rank_of(n, selector) if statistic != "winner_segment_mean" else None
        if statistic == "winner_segment_mean":
            value = Fraction(2, n + 1)
        elif statistic == "mean":
            value = exact_mean(n, k)
        elif statistic == "second_moment":
            value = exact_second_moment(n, k)
        elif statistic == "conditional_mean_given_win":
            value = exact_second_moment(n, k) / exact_mean(n, k)
        elif statistic == "ccdf":
            value = exact_ccdf(n, k, x)
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
        acc += count * value
    return acc / total


def abs_error(value: float, exact: Fraction) -> float:
    """|value - exact|, infinite for a value that is not finite."""
    if not math.isfinite(value):
        return math.inf
    return float(abs(Fraction(value) - exact))


def gap_in_se(value: float, target: float, se: float | None) -> float:
    """|value - target| in standard errors; infinite when any input is not finite."""
    gap = abs(value - target)
    if gap == 0.0:
        return 0.0
    if not (math.isfinite(gap) and se is not None and math.isfinite(se) and se > 0):
        return math.inf
    return gap / se


# --- market-6k: the files analyze wrote ---------------------------------------

_REPORT_PAIRS = (
    ("mean_implied_odds", "segment_mean_theory"),
    ("win_frequency", "segment_mean_theory"),
    ("implied_odds_given_win", "segment_mean_given_win_theory"),
)


def report_cell_failures(payload: dict) -> tuple[list[str], float]:
    """Every empirical cell of report.json within 5 SE of its theory cell.

    Returns (failures, worst gap in SE).
    """
    failures: list[str] = []
    worst = 0.0
    for bucket in payload["buckets"]:
        checks = [
            (f"{bucket['name']}/{row['rank']}/{emp}", row["statistics"][emp], row["statistics"][theory])
            for row in bucket["ranks"]
            for emp, theory in _REPORT_PAIRS
        ]
        winner = bucket["winner"]
        checks.append(
            (f"{bucket['name']}/winner", winner["winner_odds_mean"], winner["winner_segment_mean_theory"])
        )
        for where, cell, theory in checks:
            if cell["value"] is None or theory["value"] is None:
                failures.append(f"{where}: absent cell")
                continue
            gap = gap_in_se(cell["value"], theory["value"], cell["se"])
            worst = max(worst, gap)
            if not gap <= MAX_GAP_SE:
                failures.append(f"{where}: gap {gap:.2f} SE > {MAX_GAP_SE}")
    return failures, worst


def read_curve(text: str) -> tuple[list[float], list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", "survival"]:
        raise ValueError(f"unexpected curve header {rows[0]!r}")
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def ks_critical_value(count: int, alpha: float = KS_ALPHA) -> float:
    """Two-sample large-sample KS critical value at equal sizes.

    The same threshold as the repository's acceptance criterion 6; the
    one-sample value would reject about one correct curve in a hundred,
    which a benchmark run of five curves cannot afford.
    """
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(2.0 / count)


def curve_sup_distance(xs_emp, s_emp, xs_theory, s_theory) -> float:
    """Sup |empirical - theory| over both sides of every empirical jump.

    Infinite when any survival value is not finite.
    """
    if xs_emp != xs_theory:
        raise ValueError("empirical and theory curves use different grids")
    if not all(math.isfinite(v) for v in (*s_emp, *s_theory)):
        return math.inf
    worst = 0.0
    left = 1.0  # empirical survival just left of the first jump
    for s, t in zip(s_emp, s_theory):
        worst = max(worst, abs(s - t), abs(left - t))
        left = s
    return worst


def usable_counts(field_size_counts: Mapping[int, int], selector) -> dict[int, int]:
    """Field sizes of the races a rank selector uses (n >= k)."""
    k = 1 if selector == "longshot" else int(selector)
    return {n: c for n, c in field_size_counts.items() if n >= k}


def theory_point_errors(points, counts: Mapping[int, int], selector) -> list[float]:
    """|written theory survival - exact mixture| at each (x, value) point."""
    return [abs_error(value, exact_mixture(counts, "ccdf", selector, x)) for x, value in points]

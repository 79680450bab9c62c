"""Closed-form order statistics of a unit interval broken at uniform random cuts.

Cutting [0, 1] at n-1 independent uniform points yields n segments whose
sorted lengths z_(1) >= ... >= z_(n) have fully explicit laws:

  survival      P[z_(k) > x] = sum_{j=k}^n (-1)^(j-k) C(j-1, k-1) C(n, j) [1 - j x]_+^(n-1)
  first moment  E[z_(k)]   = H(n, k) / n        with H(n, k) = sum_{j=k}^n 1/j
  second moment E[z_(k)^2] = 2 / (n (n+1)) * sum_{j=k}^n H(n, j) / j

The size-biased (conditional-on-win) mean E[z_(k) | segment contains a
uniform random point] equals E[z_(k)^2] / E[z_(k)], and the mean length of
the segment containing the point is 2 / (n + 1).

The survival sum (Holst 1980; Feller vol. II, I.7) cancels terms up to ~3^n
to a probability, so it is never summed in floating point.  Between the kinks
x = 1/m it is one polynomial of degree n-1 per panel, expanded about the
midpoint of each piece in integers and rounded once; a piece is halved until
evaluating it is certified within ``SURVIVAL_TOL`` = 1e-13.  Every survival
value, for n up to ``SURVIVAL_MAX_N``, is one panel lookup and one polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "FieldSizeHistogram",
    "SegmentLaw",
    "ccdf_inverse",
    "ccdf_kth_largest",
    "ccdf_kth_largest_grid",
    "conditional_mean_given_win",
    "mean_kth_largest",
    "mixture",
    "mixture_ccdf",
    "partial_harmonic",
    "pooled_conditional_mean_given_win",
    "second_moment_kth_largest",
    "winner_segment_mean",
]

# Stated absolute accuracy of every survival value, for every n it accepts.
SURVIVAL_TOL = 1e-13
_EPS = 2.0**-52
# A piece's bound is at least (n+1) eps |S_k| (see _build_panel), and S_k is
# near 1 at small x: past this n, (2n+2) eps exceeds the tolerance.
SURVIVAL_MAX_N = int(SURVIVAL_TOL / (2 * _EPS)) - 1
# Panels kept built: all 11,480 of n <= 40 would take 6 MB; 2048 hold every
# panel of n <= 20 in 1.4 MB.
_PANELS = 2048


def _check_field_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"field size must be a positive integer, got {n!r}")


def _check_rank(n: int, k: int) -> None:
    _check_field_size(n)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 1 <= k <= n:
        raise ValueError(f"rank k={k!r} out of range for field size n={n}")


def partial_harmonic(n: int, k: int) -> float:
    """Tail of the harmonic series, H(n, k) = sum_{j=k}^{n} 1/j."""
    _check_rank(n, k)
    total = 0.0
    for j in range(n, k - 1, -1):  # ascending magnitude for accuracy
        total += 1.0 / j
    return total


def mean_kth_largest(n: int, k: int) -> float:
    """Expected length of the k-th largest segment, H(n, k) / n."""
    return partial_harmonic(n, k) / n


def second_moment_kth_largest(n: int, k: int) -> float:
    """E[z_(k)^2] = 2 / (n (n+1)) * sum_{j=k}^{n} H(n, j) / j."""
    _check_rank(n, k)
    total = 0.0
    h = 0.0
    for j in range(n, k - 1, -1):
        h += 1.0 / j  # h == H(n, j) once j is reached from above
        total += h / j
    return 2.0 * total / (n * (n + 1))


def conditional_mean_given_win(n: int, k: int) -> float:
    """Size-biased mean E[z_(k) | a uniform point lands in the k-th segment].

    Equals E[z_(k)^2] / E[z_(k)]; strictly above the plain mean whenever the
    segment length is nondegenerate (n >= 2).
    """
    return second_moment_kth_largest(n, k) / mean_kth_largest(n, k)


def winner_segment_mean(n: int) -> float:
    """Mean length of the segment containing a uniform random point: 2/(n+1)."""
    _check_field_size(n)
    return 2.0 / (n + 1)


def _shift(coeffs: list[int], u: int) -> list[int]:
    """Coefficients of P(y + u) from those of P(y), ascending, in place."""
    for q in range(len(coeffs) - 1):  # repeated synthetic division
        for p in range(len(coeffs) - 2, q - 1, -1):
            coeffs[p] += coeffs[p + 1] if u == 1 else u * coeffs[p + 1]
    return coeffs


def _build_panel(n: int, k: int, m: int) -> np.ndarray:
    """S_k on panel m, [a0/d0, (a0+1)/d0] = [1/(m+1), 1/m] (m < n) or [0, 1/n].

    Piece i after l halvings is [a/d, (a+1)/d], a = a0 2^l + i, d = d0 2^l; on it
    S_k = sum_p a_p s^p, s = D x - (2a+1), D = 2d, each a_p an integer over D^(n-1)
    rounded once by true division.  One row per piece, left to right: a_p, D,
    2a+1 and a/d.
    """
    # D^(n-1) S_k = sum_p C(n-1, p) (-y)^p T_p D^(n-1-p) at y = D x, with T_p =
    # sum_{j=k}^m c_j j^p, c_j = (-1)^(j-k) C(j-1, k-1) C(n, j); T_p = 0 for 0 < p
    # <= n-k on the first panel, an n-th difference of a lower-degree polynomial.
    a0, d0, low = (0, n, n - k + 1) if m == n else (m, m * (m + 1), 1)
    sums = [0] * n
    for j in range(k, m + 1):
        sums[0] += (c := (-1) ** (j - k) * math.comb(j - 1, k - 1) * math.comb(n, j))
        c *= j**low
        for p in range(low, n):
            sums[p] += c
            c *= j
    root = [(-1) ** p * math.comb(n - 1, p) * t * (2 * d0) ** (n - 1 - p) for p, t in enumerate(sums)]
    leaves, stack = [], [(0, 0, _shift(root, 2 * a0 + 1))]
    while stack:
        level, index, piece = stack.pop()
        scale = (d0 << (level + 1)) ** (n - 1)
        row = [c / scale for c in piece]
        # Summing a_p s^p, a_p rounded once and s^p by repeated products, errs by
        # at most (2n-1)u sum|a_p| (u = eps/2, |s| <= 1) as Horner's rule would;
        # s is off by at most (2a+3)u, moving it by that times sum p|a_p|.  As
        # pieces shrink this tends to eps ((n+1) |S_k| + x |S_k'|) < tolerance.
        a = (a0 << level) + index
        if _EPS * (np.abs(row) @ (n + 1 + (a + 2) * np.arange(n))) <= SURVIVAL_TOL:
            leaves.append(row + [2.0 * (d0 << level), 2.0 * a + 1, a / (d0 << level)])
        else:  # halves: P((t + 1)/2), and P((t - 1)/2) = R(-t), R(t) = P(-(t + 1)/2)
            half = [c << (n - 1 - p) for p, c in enumerate(piece)]  # over (2D)^(n-1)
            odd = [-c if p % 2 else c for p, c in enumerate(half)]
            left = [-c if p % 2 else c for p, c in enumerate(_shift(odd, 1))]
            stack += [(level + 1, 2 * index + 1, _shift(half, 1)), (level + 1, 2 * index, left)]
    return np.array(leaves)


@functools.lru_cache(maxsize=_PANELS)
def _panel(n: int, k: int, m: int) -> np.ndarray:
    return _build_panel(n, k, m)


def ccdf_kth_largest(n: int, k: int, x: float) -> float:
    """Survival probability P[z_(k) > x] of the k-th largest segment.

    x outside [0, 1] is clamped rather than rejected: any x <= 0 returns 1
    and any x >= 1/k returns 0 exactly (k segments of length > 1/k cannot
    fit in the unit interval).  NaN is rejected.  This is
    ``ccdf_kth_largest_grid`` on a grid of length one.
    """
    return float(ccdf_kth_largest_grid(n, k, [float(x)])[0])


def ccdf_kth_largest_grid(n: int, k: int, xs: Sequence[float]) -> np.ndarray:
    """``ccdf_kth_largest`` at every point of an array, in one kernel call: a
    panel lookup and a polynomial per point, each within ``SURVIVAL_TOL``."""
    _check_rank(n, k)
    if n > SURVIVAL_MAX_N:
        raise ValueError(f"survival is certified to {SURVIVAL_TOL:g} only for n <= {SURVIVAL_MAX_N}, got n={n}")
    n, k = int(n), int(k)
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    if np.isnan(flat).any():
        raise ValueError("x must not be NaN")
    out = (flat <= 0.0).astype(float)
    inside = np.flatnonzero((flat > 0.0) & (k * flat < 1.0))
    if not inside.size:
        return out.reshape(xs.shape)
    # Panel m counts the j with j x < 1 against the kinks 1/j as rounded, in
    # [k, n].  Rounding moves x across a kink 1/j only within eps/2 of it, where
    # the panels differ by |c_j (1 - j x)^(n-1)| <= eps/2 (n = 2), < 1e-28 (n > 2).
    x = flat[inside]
    m = np.maximum(n - np.searchsorted(1.0 / np.arange(n, 0, -1), x, side="right"), k)
    # The pieces of the panels at hand, left to right; x takes the last one
    # starting at or before it.  s = D x - (2a+1) is off by at most (2a+3)u: D x
    # rounds once, and the subtraction is exact (Sterbenz) unless a = 0.
    table = np.concatenate([_panel(n, k, panel) for panel in sorted(set(m.tolist()), reverse=True)])
    rows = table[np.searchsorted(table[:, n + 2], x, side="right") - 1]
    s = x * rows[:, n] - rows[:, n + 1]
    out[inside] = (rows[:, :n] * np.vander(s, n, increasing=True)).sum(axis=1).clip(0.0, 1.0)
    return out.reshape(xs.shape)


_STEPS = np.arange(1, 64) / 64  # a multisection round's cuts: 6 bits of x per kernel call


def _inverse(n: int, k: int, levels: np.ndarray) -> np.ndarray:
    """Smallest x with P[z_(k) > x] <= p, for every level p in (0, 1) at once.

    Brackets keep S(lo) > p >= S(hi), S as ``ccdf_kth_largest`` returns it, and
    are all cut at ``_STEPS`` in one kernel call a round, around the first cut
    with S <= p, until lo and hi are adjacent floats.  Where S is not monotone
    at the ulp scale, hi is a crossing, not necessarily the smallest."""
    rows, points = np.arange(levels.size), np.empty((levels.size, _STEPS.size + 2))  # lo, cuts, hi
    points[:, 0], points[:, -1] = 0.0, 1.0 / k
    lo, hi = points[:, :1], points[:, -1:]
    while np.any(np.nextafter(lo, hi) < hi):
        points[:, 1:-1] = np.minimum(lo + (hi - lo) * _STEPS, hi)
        above = ccdf_kth_largest_grid(n, k, points[:, 1:-1]) > levels[:, None]
        first = np.cumprod(above, axis=1).sum(axis=1)
        points[:, 0], points[:, -1] = points[rows, first], points[rows, first + 1]
    return points[:, -1].copy()


def quantile_grid(n: int, k: int, count: int = 20) -> np.ndarray:
    """Ascending grid of x values hitting equally spaced survival levels.

    The survival probabilities at the returned points are approximately
    (count - 0.5)/count down to 0.5/count, keeping every point well inside
    the distribution's bulk (useful for Monte Carlo comparisons, where the
    binomial standard error degenerates near survival 0 or 1).
    """
    _check_rank(n, k)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    levels = (np.arange(count) + 0.5) / count
    return np.sort(_inverse(int(n), int(k), levels))


def ccdf_inverse(n: int, k: int, p: float) -> float:
    """Smallest x with P[z_(k) > x] <= p, by multisection on [0, 1/k]."""
    _check_rank(n, k)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p!r} out of [0, 1]")
    if p >= 1.0:
        return 0.0
    if p <= 0.0:
        return 1.0 / k
    return float(_inverse(int(n), int(k), np.array([float(p)]))[0])


class SegmentLaw:
    """The closed forms above for a fixed number of segments n.

    Instances are immutable and safe to share across threads.
    """

    def __init__(self, n: int):
        _check_field_size(n)
        self.n = int(n)

    def mean(self, k: int) -> float:
        return mean_kth_largest(self.n, k)

    def second_moment(self, k: int) -> float:
        return second_moment_kth_largest(self.n, k)

    def conditional_mean_given_win(self, k: int) -> float:
        return conditional_mean_given_win(self.n, k)

    def ccdf(self, k: int, x: float) -> float:
        return ccdf_kth_largest(self.n, k, x)

    def winner_segment_mean(self) -> float:
        return winner_segment_mean(self.n)

    def means(self) -> np.ndarray:
        """Expected lengths for ranks 1..n."""
        return np.array([mean_kth_largest(self.n, k) for k in range(1, self.n + 1)])

    def second_moments(self) -> np.ndarray:
        return np.array([second_moment_kth_largest(self.n, k) for k in range(1, self.n + 1)])

    def __repr__(self) -> str:  # pragma: no cover
        return f"SegmentLaw(n={self.n})"


@dataclass(frozen=True)
class FieldSizeHistogram:
    """Race counts per field size, the weights for every mixture average."""

    counts: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[int, int] = {}
        for n, count in dict(self.counts).items():
            n = int(n)
            _check_field_size(n)
            if count < 0 or int(count) != count:
                raise ValueError(f"count for n={n} must be a nonnegative integer, got {count!r}")
            if count:
                clean[n] = int(count)
        object.__setattr__(self, "counts", clean)

    @classmethod
    def from_sizes(cls, sizes) -> "FieldSizeHistogram":
        if not isinstance(sizes, np.ndarray):
            sizes = np.fromiter(sizes, dtype=np.int64)
        support, counts = np.unique(sizes, return_counts=True)
        return cls(dict(zip(support.tolist(), counts.tolist())))

    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))

    def weights(self) -> dict[int, float]:
        """Normalized weights w_n = count(n) / total; requires total > 0."""
        total = self.total()
        if total == 0:
            raise ValueError("histogram is empty: no races to average over")
        return {n: self.counts[n] / total for n in self.support()}

    def mean_field_size(self) -> float:
        weights = self.weights()
        return sum(n * w for n, w in weights.items())

    def __len__(self) -> int:
        return len(self.counts)


_RANK_STATISTICS = ("mean", "second_moment", "conditional_mean_given_win", "ccdf")
STATISTICS = _RANK_STATISTICS + ("winner_segment_mean",)


def _resolve_rank(n: int, k, *, statistic: str) -> int:
    if k == "longshot":
        return n
    if k is None:
        raise ValueError(f"statistic {statistic!r} needs a rank k (or 'longshot')")
    if k > n:
        raise ValueError(
            f"rank k={k} exceeds field size n={n} present in the histogram support"
        )
    return int(k)


def mixture(hist: FieldSizeHistogram, statistic: str, *, k=None, x: float | None = None) -> float:
    """Field-size weighted average of a per-n statistic.

    ``statistic`` is one of ``STATISTICS``.  ``k`` is a fixed rank or the
    string ``"longshot"`` (rank n within each field size); it is ignored for
    ``winner_segment_mean``.  ``x`` is required for ``ccdf``.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    weights = hist.weights()
    if statistic == "winner_segment_mean":
        return sum(w * winner_segment_mean(n) for n, w in weights.items())
    if statistic == "ccdf":
        if x is None:
            raise ValueError("statistic 'ccdf' needs an evaluation point x")
        return float(mixture_ccdf(hist, k, [x])[0])
    fn = {
        "mean": mean_kth_largest,
        "second_moment": second_moment_kth_largest,
        "conditional_mean_given_win": conditional_mean_given_win,
    }[statistic]
    return sum(w * fn(n, _resolve_rank(n, k, statistic=statistic)) for n, w in weights.items())


def mixture_ccdf(hist: FieldSizeHistogram, k, xs: Sequence[float]) -> np.ndarray:
    """Mixture survival curve sum_n w_n P[z_(k(n)) > x] on a grid."""
    weights = hist.weights()
    xs = np.asarray(xs, dtype=float)
    out = np.zeros_like(xs)
    for n, w in weights.items():
        rank = _resolve_rank(n, k, statistic="ccdf")
        out += w * ccdf_kth_largest_grid(n, rank, xs)
    return out


def pooled_conditional_mean_given_win(hist: FieldSizeHistogram, k) -> float:
    """Size-biased mean of the k-th segment under the field-size mixture.

    Race data pooled across field sizes estimates this ratio of mixtures,
    sum_n w_n E[z_(k)^2] / sum_n w_n E[z_(k)]: conditioning on a win tilts
    the field-size weights toward sizes where rank k wins more often.
    Averaging the per-n conditional means instead (``mixture`` with
    ``conditional_mean_given_win``) gives a systematically smaller number.
    """
    num = mixture(hist, "second_moment", k=k)
    den = mixture(hist, "mean", k=k)
    return num / den

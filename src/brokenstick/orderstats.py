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
to a probability.  One kernel evaluates it over a whole grid in double
precision with a rounding bound per point, and sums the points whose bound
exceeds ``SURVIVAL_TOL`` = 1e-12 again exactly in integers: every survival
value, for every n, is within 1e-12 of exact.
"""

from __future__ import annotations

import bisect
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

# Stated absolute accuracy of every survival value, for every n.
SURVIVAL_TOL = 1e-12


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


@functools.lru_cache(maxsize=1024)
def _terms(n: int, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Exact weights c_j = (-1)^(j-k) C(j-1, k-1) C(n, j), j = k..n, of the
    at-least-k sum, and their float rows (c_j) and (|c_j|), read-only."""
    coeffs = tuple((-1) ** (j - k) * math.comb(j - 1, k - 1) * math.comb(n, j) for j in range(k, n + 1))
    try:
        weights = np.array([coeffs, [abs(c) for c in coeffs]], dtype=float)
    except OverflowError:  # n in the hundreds: NaN sums send every point to the exact sum
        weights = np.full((2, len(coeffs)), np.inf)
    weights.flags.writeable = False
    return coeffs, weights


def _survival_exact(n: int, k: int, x: float, coeffs: tuple[int, ...]) -> float:
    # x = m / d, d a power of two: the sum is an integer over d^(n-1), and
    # integer true division rounds it correctly.
    m, d = x.as_integer_ratio()
    total = 0
    for j, c in enumerate(coeffs, start=k):
        if d <= j * m:
            break
        total += c * (d - j * m) ** (n - 1)
    return total / d ** (n - 1)


def _survival_float(n: int, k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The survival sum in double precision at points x in [0, 1/k], and its rounding bound."""
    weights = _terms(n, k)[1]
    j = np.arange(k, n + 1.0)
    # Veltkamp split x = hi + lo, with hi short enough that j*hi and j*lo are
    # exact products: 1 - j*hi is then exact where it cancels (Sterbenz), so
    # each base 1 - j x is within 2u relative, u = eps/2, however far it cancels.
    scaled = float(2 ** n.bit_length() + 1) * x
    hi = scaled - (scaled - x)
    lo = x - hi
    base = np.maximum((1.0 - hi[:, None] * j) - lo[:, None] * j, 0.0)
    # Rows are summed one by one along the fast axis: unlike a BLAS product,
    # a point's value then does not depend on the rest of the grid.
    with np.errstate(invalid="ignore"):
        value, magnitude = ((base ** (n - 1))[:, None, :] * weights).sum(axis=2).T
    # Bound relative to sum |c_j| kernel_j: 2(n-1)u base, 2u pow (1 ulp), 2u
    # weight and product, (n-1)u sum: (3n+1)u to first order; (2n+4) eps =
    # (4n+8)u leaves room for second-order terms and a pow within 4 ulp.
    return value, (2 * n + 4) * 2.0**-52 * magnitude


def ccdf_kth_largest(n: int, k: int, x: float) -> float:
    """Survival probability P[z_(k) > x] of the k-th largest segment.

    x outside [0, 1] is clamped rather than rejected: any x <= 0 returns 1
    and any x >= 1/k returns 0 exactly (k segments of length > 1/k cannot
    fit in the unit interval).  NaN is rejected.  This is
    ``ccdf_kth_largest_grid`` on a grid of length one.
    """
    return float(ccdf_kth_largest_grid(n, k, [float(x)])[0])


def ccdf_kth_largest_grid(n: int, k: int, xs: Sequence[float]) -> np.ndarray:
    """``ccdf_kth_largest`` at every point of an array, in one kernel call.

    Each value is within ``SURVIVAL_TOL`` of exact: the float sum stands where
    its rounding bound allows, other points (NaN bounds too) are summed exactly.
    """
    _check_rank(n, k)
    n, k = int(n), int(k)
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    if np.isnan(flat).any():
        raise ValueError("x must not be NaN")
    out = (flat <= 0.0).astype(float)
    inside = np.flatnonzero((flat > 0.0) & (k * flat < 1.0))
    value, bound = _survival_float(n, k, flat[inside])
    out[inside] = np.clip(value, 0.0, 1.0)
    coeffs = _terms(n, k)[0]
    for i in inside[~(bound <= SURVIVAL_TOL)]:
        out[i] = _survival_exact(n, k, float(flat[i]), coeffs)
    return out.reshape(xs.shape)


# Cut points of a multisection round: 64 pieces fix 6 bits of x per kernel call.
_STEPS = np.arange(1, 64) / 64


def _inverse(n: int, k: int, levels: np.ndarray) -> np.ndarray:
    """Smallest x with P[z_(k) > x] <= p, for every level p in (0, 1) at once.

    Brackets keep S(lo) > p >= S(hi), S as ``ccdf_kth_largest`` returns it,
    and are all cut at ``_STEPS`` in one float kernel call a round until lo
    and hi are adjacent floats.  A cut is judged by its float sum if that is
    certified or clear of p by twice its bound; the few next to the crossing
    are summed exactly, in a bisection over the cuts."""
    coeffs = _terms(n, k)[0]
    rows = np.arange(levels.size)
    lo = np.zeros(levels.size)
    hi = np.full(levels.size, 1.0 / k)
    while np.any(np.nextafter(lo, hi) < hi):
        inner = np.minimum(lo[:, None] + (hi - lo)[:, None] * _STEPS, hi[:, None])
        value, bound = (a.reshape(inner.shape) for a in _survival_float(n, k, inner.ravel()))
        gap = value - levels[:, None]
        # +1 surely above p, -1 surely at or below it, 0 too close to call
        side = np.where((bound <= SURVIVAL_TOL) | (np.abs(gap) > 2.0 * bound), np.where(gap > 0.0, 1, -1), 0)
        first = np.cumprod(side > 0, axis=1).sum(axis=1)
        for r in np.flatnonzero(first < _STEPS.size):  # bisect past points too close to call
            first[r] = bisect.bisect_left(range(_STEPS.size), True, lo=first[r], key=lambda i: (
                side[r, i] < 0 if side[r, i] else _survival_exact(n, k, float(inner[r, i]), coeffs) <= levels[r]))
        points = np.column_stack([lo, inner, hi])
        lo, hi = points[rows, first], points[rows, first + 1]
    return hi


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
    """All order-statistic quantities for a fixed number of segments n.

    Precomputes the harmonic tails once so per-rank lookups are O(1).
    Instances are immutable and safe to share across threads.
    """

    def __init__(self, n: int):
        _check_field_size(n)
        self.n = int(n)
        means = np.empty(self.n)
        second = np.empty(self.n)
        h = 0.0
        acc = 0.0
        for j in range(self.n, 0, -1):
            h += 1.0 / j
            acc += h / j
            means[j - 1] = h / self.n
            second[j - 1] = 2.0 * acc / (self.n * (self.n + 1))
        self._means = means
        self._second = second

    def _rank_index(self, k: int) -> int:
        _check_rank(self.n, k)
        return int(k) - 1

    def mean(self, k: int) -> float:
        return float(self._means[self._rank_index(k)])

    def second_moment(self, k: int) -> float:
        return float(self._second[self._rank_index(k)])

    def conditional_mean_given_win(self, k: int) -> float:
        i = self._rank_index(k)
        return float(self._second[i] / self._means[i])

    def ccdf(self, k: int, x: float) -> float:
        return ccdf_kth_largest(self.n, k, x)

    def winner_segment_mean(self) -> float:
        return 2.0 / (self.n + 1)

    def means(self) -> np.ndarray:
        """Expected lengths for ranks 1..n (copy)."""
        return self._means.copy()

    def second_moments(self) -> np.ndarray:
        return self._second.copy()

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

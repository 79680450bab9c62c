"""Monte Carlo samplers and estimators for the randomly broken unit interval.

Two equivalent constructions are provided: cutting [0, 1] at n-1 uniform
points, and normalizing n independent unit-rate exponentials.  Both yield
the same joint law of sorted segment lengths, which makes each an oracle
for the other and for the closed forms in ``orderstats``.

Reproducibility: all sampling is split into fixed-size chunks; chunk i uses
the Philox counter-based generator keyed by ``SeedSequence(seed,
spawn_key=(i,))``.  Per-chunk partial results are reduced in chunk order,
so a configuration (samples, seed, construction, chunk_size) yields
bit-identical estimates for any ``workers`` count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "CONSTRUCTIONS",
    "SimConfig",
    "McEstimate",
    "WinnerStats",
    "chunk_rng",
    "sample_divisions",
    "sample_race",
    "estimate_ccdf",
    "estimate_ccdf_all_ranks",
    "estimate_mean",
    "estimate_second_moment",
    "estimate_winner_stats",
    "sample_kth_segment",
]

CONSTRUCTIONS = ("uniform-cuts", "exponential-ratio")

_SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SimConfig:
    """Sampling budget, seed, construction, and deterministic chunking."""

    samples: int
    seed: int = 0
    construction: str = "uniform-cuts"
    chunk_size: int = 100_000

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(
                f"unknown construction {self.construction!r}; choose from {CONSTRUCTIONS}"
            )
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")

    def chunks(self) -> Iterator[tuple[int, int]]:
        """Yield (chunk_index, chunk_samples) covering the full budget."""
        full, rest = divmod(self.samples, self.chunk_size)
        for i in range(full):
            yield i, self.chunk_size
        if rest:
            yield full, rest


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Philox generator for one chunk, fixed by (seed, chunk index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _resample_degenerate(
    segments: np.ndarray, sampler: Callable[[int], np.ndarray]
) -> np.ndarray:
    # Coincident cuts (or a zero exponential draw) would break a segment's
    # positivity; such rows have probability ~0 and are redrawn.
    while True:
        bad = ~np.all(segments > 0.0, axis=1) | ~np.all(np.isfinite(segments), axis=1)
        if not bad.any():
            return segments
        segments[bad] = sampler(int(bad.sum()))


def _divisions_uniform(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    if n == 1:
        return np.ones((size, 1))

    def draw(count: int) -> np.ndarray:
        cuts = np.sort(rng.random((count, n - 1)), axis=1)
        return np.diff(cuts, axis=1, prepend=0.0, append=1.0)

    segments = _resample_degenerate(draw(size), draw)
    return np.sort(segments, axis=1)[:, ::-1]


def _divisions_exponential(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    def draw(count: int) -> np.ndarray:
        x = rng.standard_exponential((count, n))
        return x / x.sum(axis=1, keepdims=True)

    segments = _resample_degenerate(draw(size), draw)
    return np.sort(segments, axis=1)[:, ::-1]


_BULK_SAMPLERS = {
    "uniform-cuts": _divisions_uniform,
    "exponential-ratio": _divisions_exponential,
}


def sample_divisions(
    n: int, size: int, rng: np.random.Generator, construction: str = "uniform-cuts"
) -> np.ndarray:
    """(size, n) matrix of sorted-descending segment lengths."""
    if n < 1:
        raise ValueError(f"field size must be >= 1, got {n}")
    if construction not in _BULK_SAMPLERS:
        raise ValueError(f"unknown construction {construction!r}")
    return _BULK_SAMPLERS[construction](n, size, rng)


def _races(
    n: int, size: int, rng: np.random.Generator, construction: str
) -> tuple[np.ndarray, np.ndarray]:
    segments = sample_divisions(n, size, rng, construction)
    cumulative = np.cumsum(segments, axis=1)
    cumulative[:, -1] = 1.0  # guard the float tail so every point lands
    points = rng.random(size)
    winner_ranks = (points[:, None] < cumulative).argmax(axis=1) + 1
    return segments, winner_ranks


def sample_race(
    n: int, rng: np.random.Generator, construction: str = "uniform-cuts"
) -> tuple[np.ndarray, int]:
    """One division plus the 1-based rank of the segment holding a uniform point."""
    segments, ranks = _races(n, 1, rng, construction)
    return segments[0], int(ranks[0])


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    se: float
    samples: int

    def gap_in_se(self, reference: float) -> float:
        """|estimate - reference| in standard-error units (inf if se == 0)."""
        gap = abs(self.value - reference)
        if gap == 0.0:
            return 0.0
        return gap / self.se if self.se > 0.0 else float("inf")


def _map_chunks(config: SimConfig, job: Callable[[int, int], object], workers: int) -> list:
    chunks = list(config.chunks())
    if workers <= 1 or len(chunks) == 1:
        return [job(i, count) for i, count in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(job, i, count) for i, count in chunks]
    return [f.result() for f in futures]  # submission order == chunk order


def estimate_ccdf_all_ranks(
    n: int, xs: Sequence[float], config: SimConfig, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival of every rank at each grid point.

    Returns (estimates, standard_errors), both shaped (n, len(xs)); row k-1
    holds P[z_(k) > x].  Standard errors use the binomial sample variance.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("xs must contain at least one evaluation point")
    if np.any(np.diff(xs) < 0):
        raise ValueError("xs must be sorted ascending")

    def job(index: int, count: int) -> np.ndarray:
        segments = sample_divisions(n, count, chunk_rng(config.seed, index), config.construction)
        # hits[k, j] = number of draws with z_(k+1) > xs[j], counted on each rank's
        # sorted draws: a (count, n, len(xs)) comparison array is hundreds of MB
        ordered = np.sort(segments.T, axis=1)
        return count - np.stack([np.searchsorted(row, xs, side="right") for row in ordered])

    hits = np.zeros((n, xs.size), dtype=np.int64)
    for partial in _map_chunks(config, job, workers):
        hits += partial
    p = hits / config.samples
    se = np.sqrt(p * (1.0 - p) / config.samples)
    return p, se


def estimate_ccdf(
    n: int, k: int, xs: Sequence[float], config: SimConfig, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival fractions of z_(k) with standard errors."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range for field size n={n}")
    p, se = estimate_ccdf_all_ranks(n, xs, config, workers)
    return p[k - 1], se[k - 1]


def _moment_estimate(
    n: int, k: int, config: SimConfig, power: int, workers: int
) -> McEstimate:
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range for field size n={n}")

    def job(index: int, count: int) -> tuple[float, float]:
        segments = sample_divisions(n, count, chunk_rng(config.seed, index), config.construction)
        values = segments[:, k - 1] ** power
        return float(values.sum()), float((values**2).sum())

    s1 = 0.0
    s2 = 0.0
    for part1, part2 in _map_chunks(config, job, workers):
        s1 += part1
        s2 += part2
    return _mean_se(s1, s2, config.samples)


def _mean_se(s1: float, s2: float, count: int) -> McEstimate:
    mean = s1 / count
    if count > 1:
        variance = max(0.0, (s2 - count * mean * mean) / (count - 1))
        se = (variance / count) ** 0.5
    else:
        se = 0.0
    return McEstimate(mean, se, count)


def estimate_mean(n: int, k: int, config: SimConfig, workers: int = 1) -> McEstimate:
    """Monte Carlo E[z_(k)]."""
    return _moment_estimate(n, k, config, power=1, workers=workers)


def estimate_second_moment(n: int, k: int, config: SimConfig, workers: int = 1) -> McEstimate:
    """Monte Carlo E[z_(k)^2]."""
    return _moment_estimate(n, k, config, power=2, workers=workers)


def sample_kth_segment(n: int, k: int, config: SimConfig, workers: int = 1) -> np.ndarray:
    """Raw draws of the k-th largest segment length (for distributional tests)."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range for field size n={n}")

    def job(index: int, count: int) -> np.ndarray:
        segments = sample_divisions(n, count, chunk_rng(config.seed, index), config.construction)
        return segments[:, k - 1].copy()

    return np.concatenate(_map_chunks(config, job, workers))


@dataclass(frozen=True)
class WinnerStats:
    """Single-pass race statistics: who wins and how long the winner's segment is.

    Arrays are indexed by rank-1.  ``conditional_mean[k-1]`` is NaN when
    rank k never won in the sample.
    """

    n: int
    races: int
    win_counts: np.ndarray
    win_frequency: np.ndarray
    win_frequency_se: np.ndarray
    conditional_mean: np.ndarray
    conditional_se: np.ndarray
    winner_mean: McEstimate


def estimate_winner_stats(n: int, config: SimConfig, workers: int = 1) -> WinnerStats:
    """Simulate races and accumulate win frequencies and winner-segment moments."""

    def job(index: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        segments, ranks = _races(n, count, chunk_rng(config.seed, index), config.construction)
        winner_lengths = segments[np.arange(count), ranks - 1]
        wins = np.bincount(ranks - 1, minlength=n)
        sums = np.bincount(ranks - 1, weights=winner_lengths, minlength=n)
        sumsq = np.bincount(ranks - 1, weights=winner_lengths**2, minlength=n)
        return wins, sums, sumsq

    wins = np.zeros(n, dtype=np.int64)
    sums = np.zeros(n)
    sumsq = np.zeros(n)
    for w, s, s2 in _map_chunks(config, job, workers):
        wins += w
        sums += s
        sumsq += s2

    races = config.samples
    freq = wins / races
    freq_se = np.sqrt(freq * (1.0 - freq) / races)

    cond_mean = np.full(n, np.nan)
    cond_se = np.full(n, np.nan)
    for i in range(n):
        if wins[i] > 0:
            est = _mean_se(float(sums[i]), float(sumsq[i]), int(wins[i]))
            cond_mean[i] = est.value
            cond_se[i] = est.se

    winner_mean = _mean_se(float(sums.sum()), float(sumsq.sum()), races)
    return WinnerStats(
        n=n,
        races=races,
        win_counts=wins,
        win_frequency=freq,
        win_frequency_se=freq_se,
        conditional_mean=cond_mean,
        conditional_se=cond_se,
        winner_mean=winner_mean,
    )

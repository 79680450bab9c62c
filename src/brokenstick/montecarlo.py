"""Monte Carlo samplers and estimators for the randomly broken unit interval.

Two equivalent constructions are provided: cutting [0, 1] at n-1 uniform
points, and normalizing n independent unit-rate exponentials.  Both yield
the same joint law of sorted segment lengths, which makes each an oracle
for the other and for the closed forms in ``orderstats``.

Reproducibility: all sampling is split into fixed-size chunks; chunk i uses
the Philox counter-based generator keyed by ``SeedSequence(seed,
spawn_key=(i,))``.  Each chunk reduces to one (count, total, m2) triple per
cell, m2 being the sum of squared deviations from the chunk mean, and the
triples merge in chunk order by the pairwise update of Chan, Golub & LeVeque
(1979).  So a configuration (samples, seed, construction, chunk_size) yields
bit-identical estimates for any ``workers`` count.  Estimates are the mean
total/count with the ddof=1 standard error sqrt(m2/(count-1)/count).

Memory: a chunk is drawn, sorted and reduced in slabs of ``_SLAB`` rows, so
the survival and moment jobs hold O(_SLAB x n) scratch whatever
``chunk_size`` is: ``chunk_size`` sets the seed partition and the parallel
grain, not the memory.  ``sample_divisions`` and ``sample_races`` return
whole (size, n) arrays, and the winner job keeps its chunk's divisions,
because the winners' points are drawn after every division.
``Generator.random`` and ``standard_exponential`` fill element by element, so
the slabs take the stream in the order one (size, n) draw would, and the slab
size moves no bit, with one exception: a degenerate row (coincident cuts or a
zero exponential draw, about 1e-10 per 100k rows) is redrawn inside its own
slab, before the next slab is drawn, so a chunk holding one draws other bits
than a whole-chunk draw would.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .orderstats import _check_field_size, _check_rank

__all__ = [
    "CONSTRUCTIONS",
    "SimConfig",
    "McEstimate",
    "WinnerStats",
    "chunk_rng",
    "sample_divisions",
    "sample_races",
    "estimate_ccdf",
    "estimate_ccdf_all_ranks",
    "estimate_mean",
    "estimate_second_moment",
    "estimate_winner_stats",
]

CONSTRUCTIONS = ("uniform-cuts", "exponential-ratio")

_SEED_LIMIT = 2**64
# Rows per slab: 0.8 MB of float64 at n = 12, so a slab's scratch stays in
# cache; slabs of 2048 rows ran slower than one whole-chunk draw.
_SLAB = 8192


@dataclass(frozen=True)
class SimConfig:
    """Sampling budget, seed, construction, and deterministic chunking."""

    samples: int
    seed: int = 0
    construction: str = "uniform-cuts"
    chunk_size: int = 100_000

    def __post_init__(self):
        for name, least in (("samples", 1), ("seed", 0), ("chunk_size", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.seed >= _SEED_LIMIT:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(
                f"unknown construction {self.construction!r}; choose from {CONSTRUCTIONS}"
            )

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
    # positivity; such rows have probability ~0 and are redrawn.  One min/max
    # pass clears a clean chunk (NaN fails it too); only a dirty one gets the
    # per-row mask.
    while segments.size and not (segments.min() > 0.0 and segments.max() < np.inf):
        bad = ~np.all(segments > 0.0, axis=1) | ~np.all(np.isfinite(segments), axis=1)
        segments[bad] = sampler(int(bad.sum()))
    return segments


def _division_slabs(
    n: int, size: int, rng: np.random.Generator, construction: str
) -> Iterator[tuple[slice, np.ndarray]]:
    """``size`` rows of sorted-descending segment lengths, as (rows, slab) pairs of
    ``_SLAB`` rows: a bad argument raises on the call, each slab is drawn as read."""
    _check_field_size(n)
    if construction == "uniform-cuts":
        def draw(count: int) -> np.ndarray:  # n = 1 draws no cut and gives [1.0]
            cuts = rng.random((count, n - 1))
            cuts.sort(axis=1)
            return np.diff(cuts, axis=1, prepend=0.0, append=1.0)
    elif construction == "exponential-ratio":
        def draw(count: int) -> np.ndarray:
            x = rng.standard_exponential((count, n))
            x /= x.sum(axis=1, keepdims=True)
            return x
    else:
        raise ValueError(f"unknown construction {construction!r}")

    def slab(start: int) -> tuple[slice, np.ndarray]:
        count = min(_SLAB, size - start)
        segments = _resample_degenerate(draw(count), draw)
        segments.sort(axis=1)
        return slice(start, start + count), segments[:, ::-1]

    return map(slab, range(0, size, _SLAB))


def sample_divisions(
    n: int, size: int, rng: np.random.Generator, construction: str = "uniform-cuts"
) -> np.ndarray:
    """(size, n) matrix of sorted-descending segment lengths."""
    slabs = _division_slabs(n, size, rng, construction)
    out = np.empty((size, n))
    for rows, slab in slabs:
        out[rows] = slab
    return out


def sample_races(
    n: int, size: int, rng: np.random.Generator, construction: str = "uniform-cuts"
) -> tuple[np.ndarray, np.ndarray]:
    """``size`` races of n horses: the (size, n) sorted-descending divisions, and
    per race the 1-based rank of the segment holding a uniform point (the winner)."""
    segments = sample_divisions(n, size, rng, construction)
    points = rng.random(size)  # after every division, whatever the slabs
    winner_ranks = np.empty(size, dtype=np.intp)
    for start in range(0, size, _SLAB):
        rows = slice(start, start + _SLAB)
        cumulative = np.cumsum(segments[rows], axis=1)
        cumulative[:, -1] = 1.0  # guard the float tail so every point lands
        winner_ranks[rows] = (points[rows, None] < cumulative).argmax(axis=1) + 1
    return segments, winner_ranks


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


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pool two (count, total, m2) triples by the sum form of Chan, Golub & LeVeque,
    in float64; the correction is 0 where either side holds no values."""
    (na, ta, ma), (nb, tb, mb) = a, b
    scale = na * nb * (na + nb)
    correction = np.divide((nb * ta - na * tb) ** 2, scale, out=np.zeros_like(scale), where=scale > 0)
    return np.stack([na + nb, ta + tb, ma + mb + correction])


def _finish(triple: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 standard error per cell: se is 0 for one value, NaN for none."""
    count, total, m2 = triple
    with np.errstate(divide="ignore", invalid="ignore"):
        return total / count, np.where(count == 1, 0.0, np.sqrt(m2 / (count - 1) / count))


def _reduce_chunks(config: SimConfig, job: Callable[[int, int], np.ndarray], workers: int) -> np.ndarray:
    """Merge the triples ``job`` returns for every chunk, in chunk order."""
    with ThreadPoolExecutor(max_workers=workers) as pool:  # workers < 1 raises here
        futures = [pool.submit(job, i, count) for i, count in config.chunks()]
    return functools.reduce(_merge, [f.result() for f in futures])  # in submission order


def _indicator_triple(hits: np.ndarray, count: int) -> np.ndarray:
    """Triple of 0/1 indicators per cell, ``hits`` of them 1 among ``count``."""
    return np.stack([np.full_like(hits, count), hits, hits * (count - hits) / count])


def estimate_ccdf_all_ranks(
    n: int, xs: Sequence[float], config: SimConfig, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival of every rank at each grid point.

    Returns (estimates, standard_errors), both shaped (n, len(xs)); row k-1
    holds P[z_(k) > x].
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("xs must contain at least one evaluation point")
    if np.isnan(xs).any():  # NaN compares false both ways, so it would pass as sorted
        raise ValueError("xs must not contain NaN")
    if np.any(np.diff(xs) < 0):
        raise ValueError("xs must be sorted ascending")

    def job(index: int, count: int) -> np.ndarray:
        # hits[k, j] = number of draws with z_(k+1) > xs[j], counted on each rank's
        # sorted draws: a (count, n, len(xs)) comparison array is hundreds of MB
        slabs = _division_slabs(n, count, chunk_rng(config.seed, index), config.construction)
        hits = np.full((n, xs.size), count, dtype=np.intp)
        for _, slab in slabs:
            ordered = np.sort(slab.T, axis=1)
            hits -= np.stack([np.searchsorted(row, xs, side="right") for row in ordered])
        return _indicator_triple(hits, count)

    return _finish(_reduce_chunks(config, job, workers))


def estimate_ccdf(
    n: int, k: int, xs: Sequence[float], config: SimConfig, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival fractions of z_(k) with standard errors."""
    _check_rank(n, k)
    p, se = estimate_ccdf_all_ranks(n, xs, config, workers)
    return p[k - 1], se[k - 1]


def _moment_estimate(
    n: int, k: int, config: SimConfig, power: int, workers: int
) -> McEstimate:
    _check_rank(n, k)

    def job(index: int, count: int) -> np.ndarray:
        values = np.empty(count)
        for rows, slab in _division_slabs(n, count, chunk_rng(config.seed, index), config.construction):
            values[rows] = slab[:, k - 1] ** power
        total = values.sum()
        return np.array([count, total, ((values - total / count) ** 2).sum()])

    mean, se = _finish(_reduce_chunks(config, job, workers))
    return McEstimate(float(mean), float(se), config.samples)


def estimate_mean(n: int, k: int, config: SimConfig, workers: int = 1) -> McEstimate:
    """Monte Carlo E[z_(k)]."""
    return _moment_estimate(n, k, config, power=1, workers=workers)


def estimate_second_moment(n: int, k: int, config: SimConfig, workers: int = 1) -> McEstimate:
    """Monte Carlo E[z_(k)^2]."""
    return _moment_estimate(n, k, config, power=2, workers=workers)


@dataclass(frozen=True)
class WinnerStats:
    """Single-pass race statistics: who wins and how long the winner's segment is.

    Arrays are indexed by rank-1.  ``conditional_mean[k-1]`` and
    ``conditional_se[k-1]`` are NaN when rank k never won in the sample.
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

    def job(index: int, count: int) -> np.ndarray:
        # cells: the n win indicators, then the winner's length per winning rank
        segments, rank = sample_races(n, count, chunk_rng(config.seed, index), config.construction)
        rank -= 1
        lengths = segments[np.arange(count), rank]
        del segments  # the rest reads only the winners' lengths
        wins = np.bincount(rank, minlength=n)
        sums = np.bincount(rank, weights=lengths, minlength=n)
        with np.errstate(invalid="ignore"):  # 0/0 for ranks without a win, never read
            deviations = lengths - (sums / wins)[rank]
        m2 = np.bincount(rank, weights=deviations**2, minlength=n)
        return np.concatenate([_indicator_triple(wins, count), np.stack([wins, sums, m2])], axis=1)

    triple = _reduce_chunks(config, job, workers)
    mean, se = _finish(triple)
    # every race has one winner: pooling the per-rank cells gives the winner's length overall
    winner = _finish(functools.reduce(_merge, triple[:, n:].T))
    return WinnerStats(
        n=n,
        races=config.samples,
        win_counts=triple[0, n:].astype(np.int64),
        win_frequency=mean[:n],
        win_frequency_se=se[:n],
        conditional_mean=mean[n:],
        conditional_se=se[n:],
        winner_mean=McEstimate(float(winner[0]), float(winner[1]), config.samples),
    )

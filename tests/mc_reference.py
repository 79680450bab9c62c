"""Two-pass, exactly summed references for the Monte Carlo estimators.

Each function redraws a simulation chunk by chunk, with the same
``chunk_rng(seed, index)`` streams the library uses, and keeps every draw.
Means and ddof=1 standard errors are then taken in two passes with
``math.fsum``: the mean from the correctly rounded sum, the variance from
the squared deviations about that mean.  The library's chunked (count,
total, m2) merge must land on these values to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from brokenstick.montecarlo import SimConfig, chunk_rng, sample_divisions, sample_races


def sample_kth_segment(n: int, k: int, config: SimConfig) -> np.ndarray:
    """Raw draws of the k-th largest segment length, in chunk order."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range for field size n={n}")
    return np.concatenate([
        sample_divisions(n, count, chunk_rng(config.seed, index), config.construction)[:, k - 1]
        for index, count in config.chunks()
    ])


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """Two-pass mean and ddof=1 standard error, both sums taken with fsum."""
    count = values.size
    mean = math.fsum(values.tolist()) / count
    if count < 2:
        return mean, 0.0
    m2 = math.fsum(((values - mean) ** 2).tolist())
    return mean, math.sqrt(m2 / (count - 1) / count)


def moment(n: int, k: int, config: SimConfig, power: int) -> tuple[float, float]:
    """Reference (mean, se) of z_(k)^power."""
    return mean_se(sample_kth_segment(n, k, config) ** power)


def winner_stats(n: int, config: SimConfig) -> dict[str, np.ndarray]:
    """Reference win frequencies, win-conditioned means and winner mean, with SEs."""
    draws = [sample_races(n, count, chunk_rng(config.seed, index), config.construction)
             for index, count in config.chunks()]
    ranks = np.concatenate([r for _, r in draws])
    lengths = np.concatenate([s[np.arange(r.size), r - 1] for s, r in draws])
    frequency = [mean_se((ranks == k).astype(float)) for k in range(1, n + 1)]
    conditional = [mean_se(lengths[ranks == k]) if (ranks == k).any() else (math.nan, math.nan)
                   for k in range(1, n + 1)]
    return {
        "win_frequency": np.array([m for m, _ in frequency]),
        "win_frequency_se": np.array([s for _, s in frequency]),
        "conditional_mean": np.array([m for m, _ in conditional]),
        "conditional_se": np.array([s for _, s in conditional]),
        "winner_mean": np.array(mean_se(lengths)),
    }

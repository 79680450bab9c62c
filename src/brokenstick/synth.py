"""Synthetic race markets with known ground truth.

Each race draws a field size, breaks the unit interval into true winning
probabilities, samples exactly one winner from them, and quotes decimal
odds as reciprocals of (optionally jittered) probabilities.  All races of
one field size are drawn together, in ascending order of n.  With
``odds_noise=0`` the market is perfectly efficient: implied odds equal the
true probabilities and sum to one.  Positive noise multiplies each
probability by an independent log-normal factor before renormalizing,
which blurs the implied ranking the way an imperfect market would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .montecarlo import CONSTRUCTIONS, sample_races
from .orderstats import FieldSizeHistogram
from .racedata import Races

__all__ = ["SyntheticDatasetConfig", "generate_synthetic_dataset"]

FieldSizeLaw = Union[FieldSizeHistogram, Sequence[int]]


@dataclass(frozen=True)
class SyntheticDatasetConfig:
    """Race count, field-size law, seed, and market-imperfection knob."""

    race_count: int
    field_sizes: FieldSizeLaw
    seed: int = 0
    odds_noise: float = 0.0
    construction: str = "uniform-cuts"

    def __post_init__(self):
        if self.race_count < 1:
            raise ValueError(f"race_count must be >= 1, got {self.race_count}")
        if not 0.0 <= self.odds_noise < float("inf"):
            raise ValueError(f"odds_noise must be finite and >= 0, got {self.odds_noise}")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}")
        self._validate_field_sizes()

    def _validate_field_sizes(self) -> None:
        law = self.field_sizes
        if isinstance(law, FieldSizeHistogram):
            if law.total() == 0:
                raise ValueError("field-size law has empty support")
            if min(law.support()) < 2:
                raise ValueError("every generated race needs n >= 2")
            return
        sizes = list(law)
        if len(sizes) != self.race_count:
            raise ValueError(
                f"explicit field-size list has {len(sizes)} entries "
                f"for {self.race_count} races"
            )
        if not sizes or min(sizes) < 2:
            raise ValueError("every generated race needs n >= 2")


def _draw_field_sizes(config: SyntheticDatasetConfig, rng: np.random.Generator) -> np.ndarray:
    law = config.field_sizes
    if isinstance(law, FieldSizeHistogram):
        weights = law.weights()
        support = np.array(sorted(weights), dtype=np.int64)
        probs = np.array([weights[int(n)] for n in support])
        return rng.choice(support, size=config.race_count, p=probs)
    return np.asarray(list(law), dtype=np.int64)


def generate_synthetic_dataset(config: SyntheticDatasetConfig) -> Races:
    """Generate races in the same schema the CSV ingestion layer reads.

    Deterministic in the seed: the generator is Philox keyed by
    ``SeedSequence(seed)``.  After the field sizes, each distinct n in
    ascending order takes three draws for all its races: the divisions with
    their winners, the log-normal noise (only when ``odds_noise > 0``) and the
    order the horses are listed in.  Horse ``h{k:02d}`` is the k-th largest
    segment of its race.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=config.seed)))
    field_sizes = _draw_field_sizes(config, rng)
    ends = np.cumsum(field_sizes)

    # per row, in output order: decimal odds, 0-based segment rank, won
    odds = np.empty(ends[-1])
    rank = np.empty(ends[-1], dtype=np.int64)
    won = np.empty(ends[-1], dtype=bool)
    for n in np.unique(field_sizes).tolist():
        races = np.flatnonzero(field_sizes == n)
        probs, winner_ranks = sample_races(n, races.size, rng, config.construction)
        quoted = probs
        if config.odds_noise > 0.0:
            quoted = probs * rng.lognormal(0.0, config.odds_noise, probs.shape)
            quoted = quoted / quoted.sum(axis=1, keepdims=True)
        order = rng.permuted(np.tile(np.arange(n), (races.size, 1)), axis=1)
        rows = (ends[races] - n)[:, None] + np.arange(n)
        odds[rows] = 1.0 / np.take_along_axis(quoted, order, axis=1)
        rank[rows] = order
        won[rows] = order == winner_ranks[:, None] - 1

    names = np.array([f"h{k:02d}" for k in range(1, field_sizes.max() + 1)], dtype=object)
    return Races(
        race_ids=np.array([f"r{i:06d}" for i in range(1, config.race_count + 1)], dtype=object),
        offsets=np.concatenate(([0], ends)),
        horse_ids=names[rank],
        decimal_odds=odds,
        won=won,
    )

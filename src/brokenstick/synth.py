"""Synthetic race markets with known ground truth.

Each race draws a field size, breaks the unit interval into true winning
probabilities, samples exactly one winner from them, and quotes decimal
odds as reciprocals of (optionally jittered) probabilities.  With
``odds_noise=0`` the market is perfectly efficient: implied odds equal the
true probabilities and sum to one.  Positive noise multiplies each
probability by an independent log-normal factor before renormalizing,
which blurs the implied ranking the way an imperfect market would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .montecarlo import CONSTRUCTIONS, sample_race
from .orderstats import FieldSizeHistogram
from .racedata import RaceEntry, RaceRecord

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
        if self.odds_noise < 0.0:
            raise ValueError(f"odds_noise must be >= 0, got {self.odds_noise}")
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


def generate_synthetic_dataset(config: SyntheticDatasetConfig) -> list[RaceRecord]:
    """Generate races in the same schema the CSV ingestion layer reads.

    Deterministic in the seed: the generator is Philox keyed by
    ``SeedSequence(seed)`` and consumed in a fixed order.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=config.seed)))
    field_sizes = _draw_field_sizes(config, rng)

    records: list[RaceRecord] = []
    for index, n in enumerate(field_sizes):
        n = int(n)
        probs, winner_rank = sample_race(n, rng, config.construction)
        quoted = probs
        if config.odds_noise > 0.0:
            quoted = probs * rng.lognormal(0.0, config.odds_noise, n)
            quoted = quoted / quoted.sum()
        order = rng.permutation(n)
        entries = tuple(
            RaceEntry(
                horse_id=f"h{j + 1:02d}",
                decimal_odds=float(1.0 / quoted[j]),
                won=(j == winner_rank - 1),
            )
            for j in order
        )
        records.append(RaceRecord(race_id=f"r{index + 1:06d}", entries=entries))
    return records

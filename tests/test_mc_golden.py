"""Pinned bits of the Monte Carlo samplers and estimators.

``mc_golden.json`` maps each case below to the sha256 (first 16 hex digits)
of what it returns:

- ``sample_divisions`` and ``sample_races`` for n in {1, 2, 9, 12}, both
  constructions, and sizes on both sides of one and three slabs of
  ``SLAB`` rows; a race case also pins the next draw of the same generator,
  which ``synth`` takes after the races;
- every estimator, for both constructions, with workers 1 and 2, on chunk
  sizes that are not multiples of ``SLAB``.

A change to how the samplers draw, sort or count must reproduce every bit.
Record the file again with ``PYTHONPATH=src python tests/test_mc_golden.py``
only for a change that moves a sampled value on purpose, and say why.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from brokenstick.montecarlo import (
    CONSTRUCTIONS,
    SimConfig,
    chunk_rng,
    estimate_ccdf,
    estimate_ccdf_all_ranks,
    estimate_mean,
    estimate_second_moment,
    estimate_winner_stats,
    sample_divisions,
    sample_races,
)

GOLDEN = Path(__file__).with_name("mc_golden.json")
SLAB = 8192  # rows per sampling slab; the sizes below sit on its edges
SIZES = (SLAB - 1, SLAB, SLAB + 1, 3 * SLAB + 5)
FIELD_SIZES = (1, 2, 9, 12)
BUDGETS = ((50_001, 20_000), (30_000, SLAB + 1))  # (samples, chunk_size)
GRID = (0.0, 0.01, 0.05, 0.08, 0.12, 0.2, 0.35, 0.6, 1.0)


def digest(*values) -> str:
    """sha256 prefix over arrays (dtype, shape and C-order bytes) and floats."""
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(float(value).hex().encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _estimators(config: SimConfig, workers: int):
    yield "estimate_ccdf_all_ranks", lambda: estimate_ccdf_all_ranks(12, GRID, config, workers)
    yield "estimate_ccdf", lambda: estimate_ccdf(12, 3, GRID, config, workers)
    for k in (1, 7, 12):
        yield f"estimate_mean k={k}", lambda k=k: estimate_mean(12, k, config, workers)
        yield f"estimate_second_moment k={k}", lambda k=k: estimate_second_moment(12, k, config, workers)

    def winner():
        stats = estimate_winner_stats(9, config, workers)
        return (stats.win_counts, stats.win_frequency, stats.win_frequency_se,
                stats.conditional_mean, stats.conditional_se, stats.winner_mean)

    yield "estimate_winner_stats n=9", winner


def _flatten(result):
    """Arrays and floats of an estimator's result, in a fixed order."""
    if isinstance(result, np.ndarray):
        return [result]
    if hasattr(result, "value"):  # McEstimate
        return [result.value, result.se, float(result.samples)]
    return [part for item in result for part in _flatten(item)]


def cases():
    """Every (key, call) pair, samplers first, in a fixed order."""
    for construction, n, size in itertools.product(CONSTRUCTIONS, FIELD_SIZES, SIZES):
        tag = f"{construction} n={n} size={size}"
        yield f"sample_divisions {tag}", lambda c=construction, n=n, s=size: digest(
            sample_divisions(n, s, chunk_rng(7, 3), c))

        def races(c=construction, n=n, s=size):
            rng = chunk_rng(7, 3)
            segments, ranks = sample_races(n, s, rng, c)
            return digest(segments, ranks, rng.random())

        yield f"sample_races {tag}", races
    for construction, (samples, chunk), workers in itertools.product(CONSTRUCTIONS, BUDGETS, (1, 2)):
        config = SimConfig(samples, seed=19, construction=construction, chunk_size=chunk)
        tag = f"{construction} samples={samples} chunk={chunk} workers={workers}"
        for name, call in _estimators(config, workers):
            yield f"{name} {tag}", lambda call=call: digest(*_flatten(call()))


CASES = dict(cases())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_pinned(golden):
    assert list(CASES) == list(golden)


@pytest.mark.parametrize("key", list(CASES))
def test_bits_are_pinned(golden, key):
    assert CASES[key]() == golden[key]


if __name__ == "__main__":
    pinned = {key: call() for key, call in CASES.items()}
    GOLDEN.write_text(json.dumps(pinned, indent=0) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} cases in {GOLDEN}")

"""Median wall times and traced memory peaks of the Monte Carlo estimators.

Not collected by pytest (the name does not start with ``test_``).  Run from
the repository root::

    PYTHONPATH=src python tests/time_montecarlo.py [--samples 1000000] [--repeats 3]

For each estimator (the all-ranks ccdf on a 20-point grid, the mean and the
second moment at n = 12, the winner statistics at n = 9), each
construction, chunk sizes 100k and 1M and workers 1 and 2, it prints the
median and the range of the timed calls in milliseconds, each after one
untimed warm-up call, and the tracemalloc peak of one more call in MB
(numpy reports its buffers to tracemalloc).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import statistics
import time
import tracemalloc

import numpy as np

from brokenstick.montecarlo import (
    CONSTRUCTIONS,
    SimConfig,
    estimate_ccdf_all_ranks,
    estimate_mean,
    estimate_second_moment,
    estimate_winner_stats,
)

GRID = np.linspace(0.0, 0.5, 20)
ESTIMATORS = {
    "ccdf_all_ranks n=12": lambda config, workers: estimate_ccdf_all_ranks(12, GRID, config, workers),
    "mean n=12 k=3": lambda config, workers: estimate_mean(12, 3, config, workers),
    "second_moment n=12 k=3": lambda config, workers: estimate_second_moment(12, 3, config, workers),
    "winner_stats n=9": lambda config, workers: estimate_winner_stats(9, config, workers),
}


def _times(call, repeats: int) -> list[float]:
    call()  # warm-up
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        out.append(time.perf_counter() - start)
    return out


def traced_peak_mb(call) -> float:
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1_000_000, help="samples per call")
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per configuration")
    args = parser.parse_args(argv)
    print(f"{'estimator':<23} {'construction':<18} {'chunk':>8} {'workers':>7} "
          f"{'median ms':>10}  {'range ms':<15} {'peak MB':>8}")
    for (name, estimator), construction, chunk, workers in itertools.product(
        ESTIMATORS.items(), CONSTRUCTIONS, (100_000, 1_000_000), (1, 2)
    ):
        config = SimConfig(args.samples, seed=1, construction=construction, chunk_size=chunk)
        call = functools.partial(estimator, config, workers)
        ms = [1e3 * t for t in _times(call, args.repeats)]
        span = f"{min(ms):.1f}-{max(ms):.1f}"
        print(f"{name:<23} {construction:<18} {chunk:>8} {workers:>7} "
              f"{statistics.median(ms):>10.1f}  {span:<15} {traced_peak_mb(call):>8.1f}")


if __name__ == "__main__":
    main()

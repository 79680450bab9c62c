"""Median wall times of the race-data stages on seeded ``synth`` markets.

Not collected by pytest (the name does not start with ``test_``).  Run from
the repository root::

    PYTHONPATH=src python tests/time_racedata.py [--races 24000,120000] [--repeats 5]

For each market (n uniform on 5..16, seed 2024) it times
``races_to_csv_text``, ``parse_races`` on those bytes, ``rank_races`` and
``build_report``, each after one untimed warm-up call, and prints the
median and the range of the timed calls in milliseconds.
"""

from __future__ import annotations

import argparse
import statistics
import time

from brokenstick.analysis import build_report
from brokenstick.orderstats import FieldSizeHistogram
from brokenstick.racedata import parse_races, races_to_csv_text, rank_races
from brokenstick.synth import SyntheticDatasetConfig, generate_synthetic_dataset


def _times(call, repeats: int) -> list[float]:
    call()  # warm-up
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        out.append(time.perf_counter() - start)
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--races", default="24000,120000", help="comma-separated race counts")
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per stage")
    args = parser.parse_args(argv)
    sizes = FieldSizeHistogram({n: 1 for n in range(5, 17)})
    print(f"{'races':>7} {'rows':>8}  {'stage':<18} {'median ms':>10}  range ms")
    for count in map(int, args.races.split(",")):
        races = generate_synthetic_dataset(
            SyntheticDatasetConfig(race_count=count, field_sizes=sizes, seed=2024)
        )
        data = races_to_csv_text(races).encode()
        parsed, _ = parse_races(data)
        table = rank_races(parsed)
        stages = {
            "races_to_csv_text": lambda: races_to_csv_text(races),
            "parse_races": lambda: parse_races(data),
            "rank_races": lambda: rank_races(parsed),
            "build_report": lambda: build_report(table),
        }
        for name, call in stages.items():
            ms = [1e3 * t for t in _times(call, args.repeats)]
            print(
                f"{count:>7} {int(races.offsets[-1]):>8}  {name:<18} "
                f"{statistics.median(ms):>10.1f}  {min(ms):.1f}-{max(ms):.1f}"
            )


if __name__ == "__main__":
    main()

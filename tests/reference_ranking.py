"""Per-race ranking oracle for the columnar ``RaceTable``.

The plain way to rank one race: reciprocal decimal odds, optionally divided
by their sum added left to right, sorted by (-implied odds, horse id) with
Python's stable sort, and ties counted between adjacent equal odds.
``rank_races`` must agree with it bit for bit.
"""

from __future__ import annotations


def rank_race(record, renormalize: bool = False):
    """(horse ids, implied odds, winner rank, tie count), favourite first."""
    implied = [(1.0 / e.decimal_odds, e) for e in record.entries]
    if renormalize:
        total = 0.0
        for q, _ in implied:  # left to right, as ``sum`` does only before Python 3.12
            total += q
        implied = [(q / total, e) for q, e in implied]
    implied.sort(key=lambda pair: (-pair[0], pair[1].horse_id))
    ties = sum(1 for (qa, _), (qb, _) in zip(implied, implied[1:]) if qa == qb)
    winner = next(rank for rank, (_, e) in enumerate(implied, start=1) if e.won)
    return [e.horse_id for _, e in implied], [q for q, _ in implied], winner, ties

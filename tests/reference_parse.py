"""Row-at-a-time parsing oracle for the columnar ``parse_races``.

The parser as it was before race data became columns: one ``RaceEntry`` per
row, one ``RaceRecord`` per race, and every invariant checked race by race
in Python.  ``parse_races`` must accept the same races, in the same order
and with the same rows, and log the same rejections in the same order.
"""

from __future__ import annotations

import csv
import math

from brokenstick.racedata import (
    CSV_COLUMNS,
    DEFAULT_OVERROUND_DELTA,
    RaceEntry,
    RaceRecord,
    Rejection,
    _open_source,
)
from brokenstick.orderstats import SURVIVAL_MAX_N


def race_invariant_violation(
    record: RaceRecord, overround_delta: float = DEFAULT_OVERROUND_DELTA
) -> str | None:
    """Reason the record is invalid, or None if it passes every invariant."""
    if record.field_size < 2:
        return "fewer than 2 entries"
    ids = [e.horse_id for e in record.entries]
    if len(set(ids)) != len(ids):
        return "duplicate horse id"
    for entry in record.entries:
        if not math.isfinite(entry.decimal_odds) or entry.decimal_odds <= 1.0:
            return "decimal odds not greater than 1"
    winners = sum(1 for e in record.entries if e.won)
    if winners > 1:
        return "dead heat"
    if winners == 0:
        return "no winner"
    total = 0.0
    for entry in record.entries:  # left to right, as ``sum`` does only before Python 3.12
        total += 1.0 / entry.decimal_odds
    if not (1.0 - overround_delta <= total <= 1.0 + overround_delta):
        return "overround out of band"
    if record.field_size > SURVIVAL_MAX_N:
        return f"more than {SURVIVAL_MAX_N} entries"
    return None


def parse_races(
    source, overround_delta: float = DEFAULT_OVERROUND_DELTA
) -> tuple[list[RaceRecord], list[Rejection]]:
    """Parse and validate a race CSV.

    Returns (accepted records, rejection log).  A malformed row poisons its
    race (one log entry with the line number); a race violating an invariant
    is excluded with the rejecting reason.  Every input row is accounted for:
    each distinct non-empty race id is either accepted or carried by exactly
    one rejection, and each row without a race id is one rejection of its
    own (race id None, with the row's line number).
    """
    stream = _open_source(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise ValueError(
                f"expected header {','.join(CSV_COLUMNS)!r}, got {header!r}"
            )

        rows: dict[str, list[RaceEntry]] = {}
        order: list[str] = []
        rejections: list[Rejection] = []
        poisoned: set[str] = set()

        for line, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            race_id = row[0].strip() if row else ""
            try:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
                horse_id = row[1].strip()
                if not race_id or not horse_id:
                    raise ValueError("empty race_id or horse_id")
                odds = float(row[2])
                won_text = row[3].strip()
                if won_text not in ("0", "1"):
                    raise ValueError(f"won must be 0 or 1, got {won_text!r}")
                entry = RaceEntry(horse_id, odds, won_text == "1")
            except ValueError as exc:
                rid = race_id or None
                if rid is not None and rid not in poisoned and rid not in rows:
                    order.append(rid)
                if rid is None or rid not in poisoned:
                    rejections.append(Rejection(rid, f"malformed row: {exc}", line))
                if rid is not None:
                    poisoned.add(rid)
                    rows.pop(rid, None)
                continue
            if race_id in poisoned:
                continue
            if race_id not in rows:
                rows[race_id] = []
                order.append(race_id)
            rows[race_id].append(entry)

        accepted: list[RaceRecord] = []
        for race_id in order:
            if race_id in poisoned:
                continue
            record = RaceRecord(race_id, tuple(rows[race_id]))
            reason = race_invariant_violation(record, overround_delta)
            if reason is None:
                accepted.append(record)
            else:
                rejections.append(Rejection(race_id, reason))
        return accepted, rejections
    finally:
        stream.close()

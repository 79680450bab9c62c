"""Race records, implied-odds ranking, and validated CSV ingestion.

Input schema (UTF-8 CSV, header required, rows of one race need not be
contiguous)::

    race_id,horse_id,decimal_odds,won

``decimal_odds`` quotes total payout (stake included) per unit stake, so a
valid quote is > 1 and its reciprocal is the implied winning probability.
``won`` is 0 or 1 with exactly one winner per race.  Races violating an
invariant are excluded and logged, never fatal: parsing always returns the
accepted records together with the rejection log.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

__all__ = [
    "CSV_COLUMNS",
    "DEFAULT_OVERROUND_DELTA",
    "RaceEntry",
    "RaceRecord",
    "RaceTable",
    "Rejection",
    "FieldSizeBucket",
    "BucketSpec",
    "parse_races",
    "race_invariant_violation",
    "rank_races",
    "write_races_csv",
    "races_to_csv_text",
]

CSV_COLUMNS = ("race_id", "horse_id", "decimal_odds", "won")

# Implied odds of a race must sum to 1 within this default band; bookmaker
# fees and spread keep the raw sum only roughly one.
DEFAULT_OVERROUND_DELTA = 0.10


@dataclass(frozen=True)
class RaceEntry:
    horse_id: str
    decimal_odds: float
    won: bool


@dataclass(frozen=True)
class RaceRecord:
    race_id: str
    entries: tuple[RaceEntry, ...]

    @property
    def field_size(self) -> int:
        return len(self.entries)

    def implied_odds_sum(self) -> float:
        return sum(1.0 / e.decimal_odds for e in self.entries)


@dataclass(frozen=True)
class Rejection:
    race_id: str | None
    reason: str
    line: int | None = None


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
    total = record.implied_odds_sum()
    if not (1.0 - overround_delta <= total <= 1.0 + overround_delta):
        return "overround out of band"
    return None


def _open_source(source) -> IO[str]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8-sig"))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8-sig")
        return io.StringIO(data)
    raise TypeError(f"cannot read races from {type(source).__name__}")


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


def races_to_csv_text(records: Iterable[RaceRecord]) -> str:
    """Serialize records to the input CSV schema (full float precision)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        for entry in record.entries:
            writer.writerow(
                [record.race_id, entry.horse_id, repr(float(entry.decimal_odds)), int(entry.won)]
            )
    return out.getvalue()


def write_races_csv(records: Iterable[RaceRecord], path) -> None:
    Path(path).write_text(races_to_csv_text(records), encoding="utf-8")


@dataclass(frozen=True, eq=False)
class RaceTable:
    """Ranked races as columns, one row per horse, favourite first.

    The rows of race i are ``offsets[i]:offsets[i + 1]``, sorted by implied
    odds descending with equal odds in ascending horse-id order.  Per race,
    ``winner_rank`` is the winner's 1-based rank and ``tie_count`` the
    number of adjacent equal-odds pairs.
    """

    race_ids: np.ndarray
    offsets: np.ndarray
    horse_ids: np.ndarray
    implied_odds: np.ndarray
    winner_rank: np.ndarray
    tie_count: np.ndarray

    def __len__(self) -> int:
        return len(self.race_ids)

    @property
    def field_size(self) -> np.ndarray:
        return np.diff(self.offsets)

    def select(self, races: np.ndarray) -> "RaceTable":
        """The races a boolean mask keeps, in table order."""
        rows = np.repeat(races, self.field_size)
        return RaceTable(
            self.race_ids[races],
            np.concatenate(([0], np.cumsum(self.field_size[races]))),
            self.horse_ids[rows],
            self.implied_odds[rows],
            self.winner_rank[races],
            self.tie_count[races],
        )


def rank_races(records: Iterable[RaceRecord], renormalize: bool = False) -> RaceTable:
    """Rank every race's horses by implied odds; rank 1 is the favourite.

    Equal-odds ties are broken by ascending horse id (deterministic) and
    counted in ``tie_count``.  With ``renormalize`` the implied odds are
    divided by their race's sum (added left to right in entry order),
    removing the overround.  Every race needs exactly one winner.
    """
    records = list(records)
    sizes = np.fromiter((len(r.entries) for r in records), np.int64, len(records))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    race = np.repeat(np.arange(len(records)), sizes)
    entries = [e for r in records for e in r.entries]
    q = 1.0 / np.fromiter((e.decimal_odds for e in entries), float, len(entries))
    won = np.fromiter((e.won for e in entries), bool, len(entries))
    horse_ids = np.array([e.horse_id for e in entries], dtype=object)
    if renormalize:
        total = np.zeros(len(records))
        for j in range(sizes.max(initial=0)):  # one entry column at a time
            has = sizes > j
            total[has] += q[offsets[:-1][has] + j]
        q = q / total[race]
    # order horse ids as Python compares them (a numpy str array drops trailing NULs)
    id_rank = {h: i for i, h in enumerate(sorted(set(horse_ids)))}
    id_order = np.fromiter((id_rank[h] for h in horse_ids), np.int64, len(entries))
    order = np.lexsort((id_order, -q, race))
    q, won, horse_ids = q[order], won[order], horse_ids[order]

    winners = np.bincount(race[won], minlength=len(records))
    if np.any(winners != 1):
        bad = int(np.argmax(winners != 1))
        raise ValueError(f"race {records[bad].race_id} has {winners[bad]} winners, needs one")
    ties = (q[1:] == q[:-1]) & (race[1:] == race[:-1])
    return RaceTable(
        race_ids=np.array([r.race_id for r in records], dtype=object),
        offsets=offsets,
        horse_ids=horse_ids,
        implied_odds=q,
        winner_rank=np.flatnonzero(won) - offsets[:-1] + 1,
        tie_count=np.bincount(race[1:][ties], minlength=len(records)),
    )


@dataclass(frozen=True)
class FieldSizeBucket:
    """Named inclusive field-size range; ``hi=None`` means unbounded."""

    name: str
    lo: int
    hi: int | None = None

    def __post_init__(self):
        if self.lo < 1:
            raise ValueError(f"bucket {self.name!r}: lo must be >= 1")
        if self.hi is not None and self.hi < self.lo:
            raise ValueError(f"bucket {self.name!r}: hi={self.hi} below lo={self.lo}")

    def contains(self, n):
        """Whether field size n falls in the bucket; elementwise on arrays."""
        return (n >= self.lo) & (self.hi is None or n <= self.hi)

    def label(self) -> str:
        if self.hi is None:
            return f"n>={self.lo}"
        if self.hi == self.lo:
            return f"n={self.lo}"
        return f"{self.lo}<=n<={self.hi}"


@dataclass(frozen=True)
class BucketSpec:
    buckets: tuple[FieldSizeBucket, ...]

    def __post_init__(self):
        names = [b.name for b in self.buckets]
        if len(set(names)) != len(names):
            raise ValueError("bucket names must be unique")
        if not self.buckets:
            raise ValueError("bucket spec must contain at least one bucket")

    @classmethod
    def default(cls, min_field_size: int = 5) -> "BucketSpec":
        return cls(
            (
                FieldSizeBucket("all", min_field_size, None),
                FieldSizeBucket("small", 5, 7),
                FieldSizeBucket("medium", 8, 10),
                FieldSizeBucket("large", 11, None),
            )
        )

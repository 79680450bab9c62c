"""Race columns, implied-odds ranking, and validated CSV ingestion.

Input schema (UTF-8 CSV, header required, rows of one race need not be
contiguous)::

    race_id,horse_id,decimal_odds,won

``decimal_odds`` quotes total payout (stake included) per unit stake, so a
valid quote is > 1 and its reciprocal is the implied winning probability.
``won`` is 0 or 1 with exactly one winner per race.  Races violating an
invariant are excluded and logged, never fatal: parsing always returns the
accepted races together with the rejection log.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .orderstats import SURVIVAL_MAX_N

__all__ = [
    "CSV_COLUMNS",
    "DEFAULT_OVERROUND_DELTA",
    "INVARIANTS",
    "RaceEntry",
    "RaceRecord",
    "Races",
    "RaceTable",
    "Rejection",
    "parse_races",
    "rank_races",
    "write_races_csv",
    "races_to_csv_text",
]

CSV_COLUMNS = ("race_id", "horse_id", "decimal_odds", "won")

# Implied odds of a race must sum to 1 within this default band; bookmaker
# fees and spread keep the raw sum only roughly one.
DEFAULT_OVERROUND_DELTA = 0.10

# What a race must pass, in the order checked: a race failing several is
# rejected for the first.  The last keeps every field size within the one the
# survival kernel is certified for.
INVARIANTS = (
    "fewer than 2 entries",
    "duplicate horse id",
    "decimal odds not greater than 1",
    "dead heat",
    "no winner",
    "overround out of band",
    f"more than {SURVIVAL_MAX_N} entries",
)


@dataclass(frozen=True)
class RaceEntry:
    horse_id: str
    decimal_odds: float
    won: bool


@dataclass(frozen=True)
class RaceRecord:
    """One race as a tuple of entries: the view ``Races[i]`` returns."""

    race_id: str
    entries: tuple[RaceEntry, ...]

    @property
    def field_size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class Races:
    """Races as columns, one row per horse, in input order.

    Race i is ``race_ids[i]`` with rows ``offsets[i]:offsets[i + 1]`` of
    ``horse_ids``, ``decimal_odds`` and ``won``, in the order the input
    lists them.  ``races[i]`` and ``iter(races)`` give ``RaceRecord`` views.
    """

    race_ids: np.ndarray
    offsets: np.ndarray
    horse_ids: np.ndarray
    decimal_odds: np.ndarray
    won: np.ndarray

    def __len__(self) -> int:
        return len(self.race_ids)

    @property
    def field_size(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __getitem__(self, i: int) -> RaceRecord:
        i = range(len(self))[i]
        rows = slice(self.offsets[i], self.offsets[i + 1])
        entries = map(
            RaceEntry,
            self.horse_ids[rows].tolist(),
            self.decimal_odds[rows].tolist(),
            self.won[rows].tolist(),
        )
        return RaceRecord(self.race_ids[i], tuple(entries))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Races):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in dataclasses.fields(self)
        )


@dataclass(frozen=True)
class Rejection:
    race_id: str | None
    reason: str
    line: int | None = None


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


def _race_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each race's sum of its rows' values, added left to right in row order.

    The bits are those of adding the values one by one from 0.0, as ``sum``
    does before Python 3.12 (``np.add.reduceat`` sums pairwise, which moves
    last bits).  Row position j is added to every race longer than j at
    once, longest races first, so the whole costs one pass over the rows
    however long the longest race is.
    """
    sizes = np.diff(offsets)
    longest_first = np.argsort(-sizes, kind="stable")
    starts = offsets[:-1][longest_first]
    longer = len(sizes) - np.searchsorted(np.sort(sizes), np.arange(sizes.max(initial=0)), "right")
    total = np.zeros(len(sizes))
    for j, count in enumerate(longer.tolist()):
        total[:count] += values[starts[:count] + j]
    sums = np.empty_like(total)
    sums[longest_first] = total
    return sums


def _first_failed_invariant(race, sizes, horse, won, odds, overround_delta) -> np.ndarray:
    """Per race, 1 + the index in ``INVARIANTS`` of the first check it fails, or 0.

    Row j of ``horse`` (id codes), ``won`` and ``odds`` belongs to race
    ``race[j]``; race i has ``sizes[i]`` rows and they are consecutive.
    """
    by_id = np.lexsort((horse, race))
    pairs = (horse[by_id][1:] == horse[by_id][:-1]) & (race[by_id][1:] == race[by_id][:-1])
    winners = np.bincount(race[won], minlength=len(sizes))
    with np.errstate(divide="ignore", invalid="ignore"):  # bad odds fail before the band
        total = _race_sums(1.0 / odds, np.concatenate(([0], np.cumsum(sizes))))
    failed = (
        sizes < 2,
        np.bincount(race[by_id][1:][pairs], minlength=len(sizes)) > 0,
        np.bincount(race[~(np.isfinite(odds) & (odds > 1.0))], minlength=len(sizes)) > 0,
        winners > 1,
        winners == 0,
        ~((1.0 - overround_delta <= total) & (total <= 1.0 + overround_delta)),
        sizes > SURVIVAL_MAX_N,
    )
    return np.select(failed, np.arange(1, len(INVARIANTS) + 1), 0)


def parse_races(
    source, overround_delta: float = DEFAULT_OVERROUND_DELTA
) -> tuple[Races, list[Rejection]]:
    """Parse and validate a race CSV.

    Returns (accepted races, rejection log).  Races keep the order in which
    their ids first appear, and each race keeps its rows in input order.  A
    malformed row poisons its race (one log entry with the line number, the
    reader's row index + 2); a race violating an invariant is excluded with
    the first reason of ``INVARIANTS`` it fails.  The log lists malformed
    rows in input order, then invariant rejections in race order.  Every
    input row is accounted for: each distinct non-empty race id is either
    accepted or carried by exactly one rejection, and each row without a
    race id is one rejection of its own (race id None, with the row's line
    number).  ``overround_delta`` must be >= 0 (``inf`` accepts any sum).

    The rows stream once into columns: each field but the odds becomes a
    code into one table of the distinct texts, the odds are read by
    ``float`` as they stream, and every check after that is an array
    operation over all rows or all races.
    """
    if not overround_delta >= 0.0:  # NaN too, which would reject every race
        raise ValueError(f"overround_delta must be >= 0, got {overround_delta}")
    from array import array  # here, so importing the package does not load it

    width = len(CSV_COLUMNS)
    texts: dict[str, int] = {}  # each distinct field text -> its code
    code = texts.setdefault
    race, horse, won = array("q"), array("q"), array("q")
    odds, lines = array("d"), array("q")
    width_errors: dict[int, str] = {}  # row -> message, for rows not `width` fields wide
    odds_errors: dict[int, str] = {}  # row -> message of float() on its odds
    with _open_source(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise ValueError(
                f"expected header {','.join(CSV_COLUMNS)!r}, got {header!r}"
            )
        for line, row in enumerate(reader, start=2):
            if len(row) == width:
                race.append(code(row[0], len(texts)))
                horse.append(code(row[1], len(texts)))
                won.append(code(row[3], len(texts)))
                try:
                    odds.append(float(row[2]))
                except ValueError as exc:
                    odds.append(math.nan)
                    odds_errors[len(lines)] = str(exc)
            elif not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            else:
                race.append(code(row[0], len(texts)))
                horse.append(code("", len(texts)))
                won.append(code("", len(texts)))
                odds.append(math.nan)
                width_errors[len(lines)] = f"expected {width} fields, got {len(row)}"
            lines.append(line)

    # Ids and flags are compared as stripped Python strings, through one id
    # per distinct stripped text (numpy str arrays drop trailing NULs).
    stripped = [t.strip() for t in texts]
    ids: dict[str, int] = {}
    id_of = np.fromiter((ids.setdefault(s, len(ids)) for s in stripped), np.int64, len(stripped))
    names = np.array(list(ids), dtype=object)
    empty = names == ""
    race = id_of[np.frombuffer(race, np.int64)]
    horse = id_of[np.frombuffer(horse, np.int64)]
    won_code = np.frombuffer(won, np.int64)
    won = np.array([s == "1" for s in stripped], dtype=bool)[won_code]
    odds = np.frombuffer(odds)

    # Malformed rows, by the row checks in order: width, ids, odds, won.
    def malformed(row: int) -> str:
        if row in width_errors:
            return width_errors[row]
        if empty[race[row]] or empty[horse[row]]:
            return "empty race_id or horse_id"
        if row in odds_errors:
            return odds_errors[row]
        return f"won must be 0 or 1, got {stripped[won_code[row]]!r}"

    bad = empty[race] | empty[horse]
    bad |= ~np.array([s in ("0", "1") for s in stripped], dtype=bool)[won_code]
    bad[np.fromiter(width_errors, np.int64, len(width_errors))] = True
    bad[np.fromiter(odds_errors, np.int64, len(odds_errors))] = True
    bad_rows = np.flatnonzero(bad)
    logged = empty[race[bad_rows]]  # every row without a race id, and
    logged[np.unique(race[bad_rows], return_index=True)[1]] = True  # each race's first
    rejections = [
        Rejection(names[race[row]] or None, f"malformed row: {malformed(row)}", lines[row])
        for row in bad_rows[logged].tolist()
    ]

    # The unpoisoned races in order of first appearance, each with its rows
    # in input order.
    ids_seen, first_row = np.unique(race, return_index=True)
    poisoned = empty.copy()
    poisoned[race[bad_rows]] = True
    kept = ids_seen[np.argsort(first_row)]
    kept = kept[~poisoned[kept]]
    index = np.full(len(names), -1)
    index[kept] = np.arange(len(kept))
    race = index[race]
    rows = np.flatnonzero(race >= 0)
    rows = rows[np.argsort(race[rows], kind="stable")]
    race, horse, won, odds = race[rows], horse[rows], won[rows], odds[rows]
    sizes = np.bincount(race, minlength=len(kept))
    reason = _first_failed_invariant(race, sizes, horse, won, odds, overround_delta)
    rejections += [
        Rejection(names[kept[i]], INVARIANTS[reason[i] - 1])
        for i in np.flatnonzero(reason).tolist()
    ]

    ok = reason == 0
    rows = np.repeat(ok, sizes)
    accepted = Races(
        race_ids=names[kept[ok]],
        offsets=np.concatenate(([0], np.cumsum(sizes[ok]))),
        horse_ids=names[horse[rows]],
        decimal_odds=odds[rows],
        won=won[rows],
    )
    return accepted, rejections


def races_to_csv_text(races: Races) -> str:
    """Serialize races to the input CSV schema (full float precision)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        zip(
            np.repeat(races.race_ids, races.field_size).tolist(),
            races.horse_ids.tolist(),
            map(repr, races.decimal_odds.tolist()),
            races.won.astype(np.int64).tolist(),
        )
    )
    return out.getvalue()


def write_races_csv(races: Races, path) -> None:
    Path(path).write_text(races_to_csv_text(races), encoding="utf-8")


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



def rank_races(races: Races, renormalize: bool = False) -> RaceTable:
    """Rank every race's horses by implied odds; rank 1 is the favourite.

    Equal-odds ties are broken by ascending horse id (deterministic) and
    counted in ``tie_count``.  With ``renormalize`` the implied odds are
    divided by their race's sum (added left to right in input order),
    removing the overround.  Every race needs exactly one winner.
    """
    offsets, horse_ids, won = races.offsets, races.horse_ids, races.won
    race = np.repeat(np.arange(len(races)), races.field_size)
    q = 1.0 / races.decimal_odds
    if renormalize:
        q = q / _race_sums(q, offsets)[race]
    # order horse ids as Python compares them (a numpy str array drops trailing NULs)
    names = horse_ids.tolist()
    id_rank = {h: i for i, h in enumerate(sorted(set(names)))}
    id_order = np.fromiter(map(id_rank.__getitem__, names), np.int64, len(names))
    order = np.lexsort((id_order, -q, race))
    q, won, horse_ids = q[order], won[order], horse_ids[order]

    winners = np.bincount(race[won], minlength=len(races))
    if np.any(winners != 1):
        bad = int(np.argmax(winners != 1))
        raise ValueError(f"race {races.race_ids[bad]} has {winners[bad]} winners, needs one")
    ties = (q[1:] == q[:-1]) & (race[1:] == race[:-1])
    return RaceTable(
        race_ids=races.race_ids,
        offsets=offsets,
        horse_ids=horse_ids,
        implied_odds=q,
        winner_rank=np.flatnonzero(won) - offsets[:-1] + 1,
        tie_count=np.bincount(race[1:][ties], minlength=len(races)),
    )

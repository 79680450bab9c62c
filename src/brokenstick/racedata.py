"""Race columns, implied-odds ranking, and validated CSV ingestion.

Input schema (UTF-8 CSV, header required, rows of one race need not be
contiguous)::

    race_id,horse_id,decimal_odds,won

``decimal_odds`` quotes total payout (stake included) per unit stake, so a
valid quote is > 1 and its reciprocal is the implied winning probability.
``won`` is 0 or 1 with exactly one winner per race.  Races violating an
invariant are excluded and logged, never fatal: parsing always returns the
accepted races together with the rejection log.

The only Python code run per row is the loop that appends each row's
fields to one flat list per block of rows.  Each of race id, horse id and
``won`` is then coded per block through its own table of texts numbered by
first appearance, the odds go through one ``float`` pass, and every check
after that is an array operation.  Sorts are on integer codes narrowed to
the smallest unsigned type, where numpy's stable sort is a radix sort up to
16 bits.  The writer escapes each distinct id once through ``csv.writer``
and joins the rows of many races in one ``str.join``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
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

# Rows taken from the CSV reader at a time by ``parse_races``.  Blocks of
# 256-512 rows read as fast as a bare reader loop; at 2048 rows and more the
# reader's own objects outgrow the cache and reading takes up to twice as long.
_BLOCK_ROWS = 256

# Races whose rows ``races_to_csv_text`` joins at a time.
_WRITE_RACES = 1024


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
    """A text stream of a path, bytes or file object, all read with
    ``newline=""``: the CSV reader sees every line ending as written."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline="")
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    if not isinstance(data, str):
        raise TypeError(f"cannot read races from {type(source).__name__}")
    return io.StringIO(data, newline="")


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
    for j, n in enumerate(longer.tolist()):
        total[:n] += values[starts[:n] + j]
    sums = np.empty_like(total)
    sums[longest_first] = total
    return sums


def _narrow(codes: np.ndarray, bound: int) -> np.ndarray:
    """Codes in [0, bound) as the smallest unsigned type that holds them.

    numpy's stable sort is a radix sort for types of up to 16 bits.
    """
    return codes.astype(np.min_scalar_type(max(bound - 1, 0)), copy=False)


def _first_failed_invariant(race, sizes, horse, won, odds, overround_delta) -> np.ndarray:
    """Per race, 1 + the index in ``INVARIANTS`` of the first check it fails, or 0.

    Row j of ``horse`` (id codes), ``won`` and ``odds`` belongs to race
    ``race[j]``; race i has ``sizes[i]`` rows and they are consecutive.  The
    codes come narrowed by ``_narrow``, so the sort is on narrow keys.
    """
    by_id = np.lexsort((horse, race))
    horse, race_by_id = horse[by_id], race[by_id]
    pairs = (horse[1:] == horse[:-1]) & (race_by_id[1:] == race_by_id[:-1])
    winners = np.bincount(race[won], minlength=len(sizes))
    with np.errstate(divide="ignore", invalid="ignore"):  # bad odds fail before the band
        total = _race_sums(1.0 / odds, np.concatenate(([0], np.cumsum(sizes))))
    failed = (
        sizes < 2,
        np.bincount(race_by_id[1:][pairs], minlength=len(sizes)) > 0,
        np.bincount(race[~(np.isfinite(odds) & (odds > 1.0))], minlength=len(sizes)) > 0,
        winners > 1,
        winners == 0,
        ~((1.0 - overround_delta <= total) & (total <= 1.0 + overround_delta)),
        sizes > SURVIVAL_MAX_N,
    )
    return np.select(failed, np.arange(1, len(INVARIANTS) + 1), 0)


def _first_appearance_ids(texts) -> tuple[np.ndarray, np.ndarray]:
    """Each text's id, with ids numbered in order of first appearance of the
    stripped text, and the stripped texts in id order.

    Ids are compared as stripped Python strings (a numpy str array would
    drop trailing NULs).
    """
    ids = defaultdict(count().__next__)
    of = np.fromiter(map(ids.__getitem__, map(str.strip, texts)), np.int64, len(texts))
    return _narrow(of, len(ids)), np.array(list(ids), dtype=object)


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
    Text the CSV reader cannot read raises ``ValueError`` naming its line.

    The reader's rows are taken ``_BLOCK_ROWS`` at a time into one flat list
    of fields.  Per block, each of race id, horse id and ``won`` becomes a
    code into its own table of distinct texts, numbered by first appearance,
    and the odds are read by one ``float`` pass; every check after that is
    an array operation over all rows or all races.
    """
    if not overround_delta >= 0.0:  # NaN too, which would reject every race
        raise ValueError(f"overround_delta must be >= 0, got {overround_delta}")
    width = len(CSV_COLUMNS)
    columns = (0, 1, 3)  # race id, horse id, won: each coded through its own table
    tables = [defaultdict(count().__next__) for _ in columns]  # text -> code
    codes = [array("q") for _ in columns]
    odds = array("d")
    blanks = array("q")  # per blank line, the number of rows before it
    width_errors: dict[int, str] = {}  # row -> message, for rows not `width` fields wide
    odds_errors: dict[int, str] = {}  # row -> message of float() on its odds
    try:
        with _open_source(source) as stream:
            reader = csv.reader(stream)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != CSV_COLUMNS:
                raise ValueError(
                    f"expected header {','.join(CSV_COLUMNS)!r}, got {header!r}"
                )
            for block in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
                fields: list[str] = []
                for row in block:
                    if len(row) == width:
                        fields += row
                    elif not row or (len(row) == 1 and not row[0].strip()):
                        blanks.append(len(odds) + len(fields) // width)
                    else:  # a placeholder that poisons its race
                        width_errors[len(odds) + len(fields) // width] = (
                            f"expected {width} fields, got {len(row)}"
                        )
                        fields += (row[0], "", "nan", "")
                for c, table, column in zip(columns, tables, codes):
                    column.extend(map(table.__getitem__, fields[c::width]))
                texts = iter(fields[2::width])
                while True:  # float() stops at a bad text; log it and go on after it
                    try:
                        odds.extend(map(float, texts))
                        break
                    except ValueError as exc:
                        odds_errors[len(odds)] = str(exc)
                        odds.append(math.nan)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise ValueError(f"CSV error at line {reader.line_num}: {exc}") from None

    race_of, race_names = _first_appearance_ids(tables[0])
    horse_of, horse_names = _first_appearance_ids(tables[1])
    flags = [t.strip() for t in tables[2]]
    race = race_of[np.frombuffer(codes[0], np.int64)]
    horse = horse_of[np.frombuffer(codes[1], np.int64)]
    won_code = _narrow(np.frombuffer(codes[2], np.int64), len(flags))
    del codes  # the narrow columns replace the text codes
    won = np.array([s == "1" for s in flags], dtype=bool)[won_code]
    odds = np.frombuffer(odds)
    race_empty, horse_empty = race_names == "", horse_names == ""

    # Malformed rows, by the row checks in order: width, ids, odds, won.
    def malformed(row: int) -> str:
        if row in width_errors:
            return width_errors[row]
        if race_empty[race[row]] or horse_empty[horse[row]]:
            return "empty race_id or horse_id"
        if row in odds_errors:
            return odds_errors[row]
        return f"won must be 0 or 1, got {flags[won_code[row]]!r}"

    bad = race_empty[race] | horse_empty[horse]
    bad |= ~np.array([s in ("0", "1") for s in flags], dtype=bool)[won_code]
    bad[np.fromiter(width_errors, np.int64, len(width_errors))] = True
    bad[np.fromiter(odds_errors, np.int64, len(odds_errors))] = True
    bad_rows = np.flatnonzero(bad)
    logged = race_empty[race[bad_rows]]  # every row without a race id, and
    logged[np.unique(race[bad_rows], return_index=True)[1]] = True  # each race's first
    logged = bad_rows[logged]
    lines = logged + 2 + np.searchsorted(np.frombuffer(blanks, np.int64), logged, "right")
    rejections = [
        Rejection(race_names[race[row]] or None, f"malformed row: {malformed(row)}", line)
        for row, line in zip(logged.tolist(), lines.tolist())
    ]

    # The unpoisoned races: ids count in order of first appearance, so in id
    # order they are in input order.  Each keeps its rows in input order.
    poisoned = race_empty.copy()
    poisoned[race[bad_rows]] = True
    kept = np.flatnonzero(~poisoned)
    sizes = np.bincount(race, minlength=len(race_names))[kept]
    rows = np.flatnonzero(~poisoned[race])
    rows = rows[np.argsort(race[rows], kind="stable")]
    race = np.repeat(_narrow(np.arange(len(kept)), len(kept)), sizes)
    horse, won, odds = horse[rows], won[rows], odds[rows]
    reason = _first_failed_invariant(race, sizes, horse, won, odds, overround_delta)
    rejections += [
        Rejection(race_names[kept[i]], INVARIANTS[reason[i] - 1])
        for i in np.flatnonzero(reason).tolist()
    ]

    ok = reason == 0
    rows = np.repeat(ok, sizes)
    accepted = Races(
        race_ids=race_names[kept[ok]],
        offsets=np.concatenate(([0], np.cumsum(sizes[ok]))),
        horse_ids=horse_names[horse[rows]],
        decimal_odds=odds[rows],
        won=won[rows],
    )
    return accepted, rejections


def _escaped(texts: list[str]) -> list[str]:
    """Each text as ``csv.writer`` writes it as a field of a row, plus ",".

    The writer quotes a field holding a character of its line terminator, so
    rows ended by "\r\n" quote a bare "\r" too, which the reader would
    otherwise take for the end of a line.
    """
    out = io.StringIO()
    lengths = list(map(csv.writer(out, lineterminator="\r\n").writerow, zip(texts, repeat(""))))
    ends = np.cumsum(lengths, dtype=np.int64)
    text = out.getvalue()  # each row is the field, "," and "\r\n"
    return list(map(text.__getitem__, map(slice, (ends - lengths).tolist(), (ends - 2).tolist())))


def races_to_csv_text(races: Races) -> str:
    """Serialize races to the input CSV schema (full float precision).

    Each distinct race id and horse id is escaped once, by ``csv.writer``
    itself, so quoting is the writer's.  The rows are then joined
    ``_WRITE_RACES`` races at a time, which holds one such batch of row
    texts at once rather than all of them.
    """
    horse_cell = dict.fromkeys(races.horse_ids.tolist())
    horse_cell = dict(zip(horse_cell, _escaped(list(horse_cell))))
    race_cells = np.array(_escaped(races.race_ids.tolist()), dtype=object)
    won_cell = (",0\n", ",1\n")
    offsets, sizes = races.offsets, races.field_size
    texts = [",".join(CSV_COLUMNS) + "\n"]
    for first in range(0, len(races), _WRITE_RACES):
        batch = slice(first, first + _WRITE_RACES)
        rows = slice(offsets[first], offsets[min(first + _WRITE_RACES, len(races))])
        texts.append("".join(chain.from_iterable(zip(
            np.repeat(race_cells[batch], sizes[batch]).tolist(),
            map(horse_cell.__getitem__, races.horse_ids[rows].tolist()),
            map(repr, races.decimal_odds[rows].tolist()),
            map(won_cell.__getitem__, races.won[rows].tolist()),
        ))))
    return "".join(texts)


def write_races_csv(races: Races, path) -> None:
    Path(path).write_text(races_to_csv_text(races), encoding="utf-8")


@dataclass(frozen=True, eq=False)
class RaceTable:
    """Ranked races as columns, one row per horse, favourite first.

    The rows of race i are ``offsets[i]:offsets[i + 1]``, sorted by implied
    odds descending with equal odds in ascending horse-id order.  Per race,
    ``winner_rank`` is the winner's 1-based rank and ``tie_count`` the
    number of adjacent equal-odds pairs.  ``renormalized`` says whether the
    implied odds were divided by their race's sum.
    """

    race_ids: np.ndarray
    offsets: np.ndarray
    horse_ids: np.ndarray
    implied_odds: np.ndarray
    winner_rank: np.ndarray
    tie_count: np.ndarray
    renormalized: bool

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
            self.renormalized,
        )


def rank_races(races: Races, renormalize: bool = False) -> RaceTable:
    """Rank every race's horses by implied odds; rank 1 is the favourite.

    Equal-odds ties are broken by ascending horse id (deterministic) and
    counted in ``tie_count``.  With ``renormalize`` the implied odds are
    divided by their race's sum (added left to right in input order),
    removing the overround.  Every race needs exactly one winner.
    """
    offsets, horse_ids, won = races.offsets, races.horse_ids, races.won
    race = np.repeat(_narrow(np.arange(len(races)), len(races)), races.field_size)
    q = 1.0 / races.decimal_odds
    if renormalize:
        q = q / _race_sums(q, offsets)[race]
    # order horse ids as Python compares them (a numpy str array drops trailing NULs)
    names = horse_ids.tolist()
    id_rank = {h: i for i, h in enumerate(sorted(set(names)))}
    id_order = np.fromiter(map(id_rank.__getitem__, names), np.int64, len(names))
    order = np.lexsort((_narrow(id_order, len(id_rank)), -q, race))
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
        renormalized=renormalize,
    )

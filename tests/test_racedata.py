import csv
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenstick.analysis import FieldSizeBucket, build_report
from brokenstick.orderstats import SURVIVAL_MAX_N, FieldSizeHistogram
from brokenstick.racedata import (
    _BLOCK_ROWS,
    CSV_COLUMNS,
    DEFAULT_OVERROUND_DELTA,
    INVARIANTS,
    RaceEntry,
    RaceRecord,
    Rejection,
    parse_races,
    races_to_csv_text,
    rank_races,
    write_races_csv,
)
from brokenstick.synth import SyntheticDatasetConfig, generate_synthetic_dataset
import reference_parse
from race_columns import races_of
from reference_ranking import rank_race

HEADER = "race_id,horse_id,decimal_odds,won\n"
# Traced peak of parse_races per input row, about 1.5 times the 70 bytes
# measured on the test's 50k-row CSV (99 before the columns were narrowed
# and the text codes freed early); holding the fields as per-row text costs
# about three times as much.
PEAK_BYTES_PER_ROW = 105


def _record(race_id, rows):
    return RaceRecord(race_id, tuple(RaceEntry(h, o, bool(w)) for h, o, w in rows))


def test_parse_worked_example():
    # quotes 3, 2, 6: the second horse is the favourite with implied odds 1/2
    text = HEADER + "r1,h1,3,0\nr1,h2,2,1\nr1,h3,6,0\n"
    records, rejections = parse_races(text.encode())
    assert rejections == []
    assert len(records) == 1
    implied = sorted(1.0 / e.decimal_odds for e in records[0].entries)
    assert implied == pytest.approx([1 / 6, 1 / 3, 1 / 2])

    table = rank_races(records)
    assert list(table.horse_ids) == ["h2", "h1", "h3"]
    assert table.implied_odds[0] == pytest.approx(0.5)
    assert list(table.winner_rank) == [1]
    assert list(table.field_size) == [3]
    assert list(table.offsets) == [0, 3]
    assert table.implied_odds[-1] == pytest.approx(1 / 6)  # the longshot


def test_dead_heat_rejected():
    text = HEADER + "r1,h1,3,1\nr1,h2,2,1\nr1,h3,6,0\n"
    records, rejections = parse_races(text.encode())
    assert len(records) == 0
    assert [(r.race_id, r.reason) for r in rejections] == [("r1", "dead heat")]


def test_no_winner_rejected():
    text = HEADER + "r1,h1,3,0\nr1,h2,2,0\nr1,h3,6,0\n"
    _, rejections = parse_races(text.encode())
    assert rejections[0].reason == "no winner"


def test_overround_out_of_band_rejected():
    # implied odds 0.5 + 0.5 + 0.25 = 1.25, outside [0.9, 1.1]
    text = HEADER + "r1,h1,2,0\nr1,h2,2,1\nr1,h3,4,0\n"
    _, rejections = parse_races(text.encode())
    assert rejections[0].reason == "overround out of band"
    # a wider band accepts the same race
    records, rejections = parse_races(text.encode(), overround_delta=0.30)
    assert len(records) == 1 and rejections == []


def test_overround_delta_must_be_a_band():
    text = HEADER + "r1,h1,2,0\nr1,h2,2,1\nr1,h3,4,0\n"
    for delta in (math.nan, -0.1):
        with pytest.raises(ValueError, match="overround_delta must be >= 0"):
            parse_races(text.encode(), overround_delta=delta)
    records, rejections = parse_races(text.encode(), overround_delta=math.inf)
    assert len(records) == 1 and rejections == []


def test_small_field_and_bad_odds_rejected():
    text = HEADER + "r1,h1,1.5,1\n" + "r2,h1,0.8,1\nr2,h2,4,0\n"
    _, rejections = parse_races(text.encode())
    reasons = {r.race_id: r.reason for r in rejections}
    assert reasons["r1"] == "fewer than 2 entries"
    assert reasons["r2"] == "decimal odds not greater than 1"


def test_duplicate_horse_id_rejected():
    text = HEADER + "r1,h1,2.5,1\nr1,h1,2.5,0\n"
    _, rejections = parse_races(text.encode())
    assert rejections[0].reason == "duplicate horse id"


def test_field_past_survival_limit_rejected():
    # 225 runners at odds 225 sum to 1 and pass every earlier check
    rows = "".join(f"r1,h{i:03d},225,{int(i == 0)}\n" for i in range(SURVIVAL_MAX_N + 1))
    _, rejections = parse_races((HEADER + rows + "r2,h1,2.0,1\nr2,h2,2.0,0\n").encode())
    assert [(r.race_id, r.reason) for r in rejections] == [("r1", "more than 224 entries")]
    assert INVARIANTS[-1] == "more than 224 entries"


def test_malformed_row_logged_with_line_number():
    text = HEADER + "r1,h1,3,0\nr1,h2,not_a_number,1\nr2,h1,2.0,1\nr2,h2,2.1,0\n"
    records, rejections = parse_races(text.encode())
    assert len(records) == 1 and records[0].race_id == "r2"
    assert len(rejections) == 1
    assert rejections[0].race_id == "r1"
    assert rejections[0].line == 3
    assert "malformed row" in rejections[0].reason


def test_malformed_won_flag():
    text = HEADER + "r1,h1,3,yes\nr1,h2,2,1\n"
    _, rejections = parse_races(text.encode())
    assert len(rejections) == 1 and "won" in rejections[0].reason


def test_parse_totality():
    text = HEADER + (
        "a,h1,2.0,1\na,h2,2.1,0\n"      # valid
        "b,h1,3,1\nb,h2,2,1\nb,h3,6,0\n"  # dead heat
        "c,h1,bad,1\n"                   # malformed
        "d,h1,2.1,0\nd,h2,2.1,1\n"       # valid
    )
    records, rejections = parse_races(text.encode())
    assert len(records) + len(rejections) == 4
    assert {r.race_id for r in records} == {"a", "d"}


def test_rows_without_race_id_are_each_logged():
    # two races plus two blank-id rows: one accepted, three rejections
    text = HEADER + (
        "r1,h1,2.0,1\nr1,h2,2.1,0\n"
        ",h1,2.0,1\n"
        "r2,h1,2.0,1\nr2,h2,2.0,1\n"
        "  ,h2,2.1,0\n"
    )
    records, rejections = parse_races(text.encode())
    assert [r.race_id for r in records] == ["r1"]
    assert [(r.race_id, r.line) for r in rejections] == [(None, 4), (None, 7), ("r2", None)]


def test_rows_need_not_be_contiguous():
    text = HEADER + "a,h1,2.0,1\nb,h1,2.2,1\na,h2,2.1,0\nb,h2,2.2,0\n"
    records, rejections = parse_races(text.encode())
    assert rejections == []
    assert sorted(r.race_id for r in records) == ["a", "b"]
    assert all(r.field_size == 2 for r in records)


def test_bad_header_is_fatal():
    with pytest.raises(ValueError, match="header"):
        parse_races(b"race,horse,odds,result\nr1,h1,2.5,1\n")


def test_parse_from_path(tmp_path):
    path = tmp_path / "races.csv"
    record = _record("r9", [("h1", 2.0, 1), ("h2", 2.1, 0)])
    write_races_csv(races_of([record]), path)
    records, rejections = parse_races(path)
    assert rejections == []
    assert list(records) == [record]


def test_every_source_reads_line_endings_alike(tmp_path):
    # a bare "\r" in an unquoted field ends the row whatever the source
    data = (HEADER + "r1,h\r1,2.0,1\nr1,h2,2.0,0\n").encode()
    path = tmp_path / "races.csv"
    path.write_bytes(data)
    expected = [
        Rejection("r1", "malformed row: expected 4 fields, got 2", 2),
        Rejection("1", "malformed row: expected 4 fields, got 3", 3),
    ]
    for source in (data, io.BytesIO(data), path):
        races, rejections = parse_races(source)
        assert len(races) == 0
        assert rejections == expected


def test_field_past_csv_limit_names_its_line():
    data = (HEADER + "r1,h1,2.0,1\n\nr1," + "h" * (csv.field_size_limit() + 1) + ",2.0,0\n").encode()
    with pytest.raises(ValueError, match=r"^CSV error at line 4: field larger than field limit"):
        parse_races(data)


def test_tie_break_is_deterministic():
    table = rank_races(
        races_of(
            [
                _record("r1", [("hB", 4.0, 0), ("hA", 4.0, 0), ("hC", 1.34, 1)]),
                # an n=2 race: rank 1 is the favourite, rank 2 is also the longshot
                _record("r2", [("h1", 1.6, 1), ("h2", 2.9, 0)]),
            ]
        )
    )
    assert list(table.horse_ids) == ["hC", "hA", "hB", "h1", "h2"]
    assert list(table.tie_count) == [1, 0]
    assert list(table.winner_rank) == [1, 1]
    assert table.implied_odds[3] == pytest.approx(1 / 1.6)
    assert table.implied_odds[4] == pytest.approx(1 / 2.9)


def test_renormalize_divides_by_total():
    record = _record("r1", [("h1", 2.0, 1), ("h2", 2.2, 0)])
    raw = rank_races(races_of([record]))
    norm = rank_races(races_of([record]), renormalize=True)
    assert raw.implied_odds.sum() == pytest.approx(1 / 2.0 + 1 / 2.2)
    assert norm.implied_odds.sum() == pytest.approx(1.0)


def _tie_heavy_records(rng, count):
    # few distinct quotes and short, clashing horse ids: most races hold
    # ties, some tied on odds and ordered only by id
    quotes = [2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0, 13.0]
    names = ["h1", "h10", "h2", "H1", "a", "b ", "é", "h01", "z9", "0"]
    records = []
    for i in range(count):
        n = int(rng.integers(2, 11))
        ids = rng.choice(names, size=n, replace=False)
        odds = np.where(rng.random(n) < 0.7, rng.choice(quotes, n), 1.0 + 20.0 * rng.random(n))
        winner = int(rng.integers(n))
        entries = tuple(
            RaceEntry(str(h), float(o), j == winner) for j, (h, o) in enumerate(zip(ids, odds))
        )
        records.append(RaceRecord(f"r{i}", entries))
    return records


@pytest.mark.parametrize("renormalize", [False, True])
def test_table_matches_per_race_ranking(renormalize):
    records = _tie_heavy_records(np.random.default_rng(2024), 3000)
    table = rank_races(races_of(records), renormalize=renormalize)
    assert len(table) == len(records)
    assert list(table.race_ids) == [r.race_id for r in records]
    assert table.tie_count.sum() > 1000
    for i, record in enumerate(records):
        ids, odds, winner, ties = rank_race(record, renormalize)
        rows = slice(table.offsets[i], table.offsets[i + 1])
        assert list(table.horse_ids[rows]) == ids
        assert table.implied_odds[rows].tolist() == odds  # bit for bit
        assert table.winner_rank[i] == winner
        assert table.tie_count[i] == ties


def test_select_keeps_whole_races_in_order():
    records = _tie_heavy_records(np.random.default_rng(5), 40)
    table = rank_races(races_of(records))
    keep = table.field_size >= 6
    picked = table.select(keep)
    again = rank_races(races_of([r for r, k in zip(records, keep) if k]))
    for name in ("race_ids", "offsets", "horse_ids", "implied_odds", "winner_rank", "tie_count"):
        assert np.array_equal(getattr(picked, name), getattr(again, name)), name


@pytest.mark.parametrize(
    "won", [(0, 0), (1, 1)], ids=["no winner", "dead heat"]
)
def test_ranking_needs_one_winner(won):
    record = _record("r7", [("h1", 2.0, won[0]), ("h2", 2.1, won[1])])
    with pytest.raises(ValueError, match="r7"):
        rank_races(races_of([_record("r1", [("h1", 2.0, 1), ("h2", 2.1, 0)]), record]))


def test_invariant_checker_passes_valid_record():
    records, rejections = parse_races((HEADER + "r1,h1,2.0,1\nr1,h2,2.1,0\n").encode())
    assert rejections == []
    assert list(records) == [_record("r1", [("h1", 2.0, 1), ("h2", 2.1, 0)])]


class TestBuckets:
    @staticmethod
    def _races(*sizes):
        """One race per field size; the favourite wins each."""
        return rank_races(races_of([
            _record(f"r{i}", [(f"h{j}", float(n), j == 1) for j in range(1, n + 1)])
            for i, n in enumerate(sizes)
        ]))

    def test_default_spec(self):
        def shapes(report):
            return [(b.bucket.name, b.bucket.lo, b.bucket.hi) for b in report.buckets]

        report = build_report(self._races(4, 5, 9, 12))
        assert shapes(report) == [
            ("all", 5, None), ("small", 5, 7), ("medium", 8, 10), ("large", 11, None)
        ]
        all_bucket = report.buckets[0].bucket
        assert all_bucket.contains(5) and not all_bucket.contains(4)
        # the cut moves only bucket all
        assert shapes(build_report(self._races(4, 5), 3)) == [("all", 3, None), ("small", 5, 7)]

    def test_bucket_validation(self):
        with pytest.raises(ValueError, match="min_field_size must be >= 1, got 0"):
            build_report(self._races(5), 0)
        with pytest.raises(ValueError, match="no races with field size >= 6"):
            build_report(self._races(5), 6)

    def test_contains_is_elementwise(self):
        sizes = np.array([4, 5, 7, 8, 12])
        assert list(FieldSizeBucket("small", 5, 7).contains(sizes)) == [0, 1, 1, 0, 0]
        assert list(FieldSizeBucket("all", 5).contains(sizes)) == [0, 1, 1, 1, 1]

    def test_field_size_histogram_per_bucket(self):
        report = build_report(self._races(5, 5, 9))
        histograms = {b.bucket.name: b.histogram.counts for b in report.buckets}
        # a bucket without races is left out of the report
        assert histograms == {"all": {5: 2, 9: 1}, "small": {5: 2}, "medium": {9: 1}}


def test_csv_round_trip_preserves_floats():
    record = _record("r1", [("h1", 2.3456789012345678, 1), ("h2", 1.7654321098765432, 0)])
    text = races_to_csv_text(races_of([record]))
    parsed, _ = parse_races(text.encode())
    assert parsed[0].entries[0].decimal_odds == record.entries[0].decimal_odds
    assert parsed[0].entries[1].decimal_odds == record.entries[1].decimal_odds


def test_csv_round_trip_quotes_ids():
    races = races_of(
        [
            _record("r,1", [('h"1', 2.0, 1), (" h2", 2.5, 0), ("h,3", 8.0, 0)]),
            _record(' r"2', [("h1", 1.5, 0), ("h2", 3.0, 1)]),
        ]
    )
    text = races_to_csv_text(races)
    assert text == HEADER + (
        '"r,1","h""1",2.0,1\n'
        '"r,1", h2,2.5,0\n'
        '"r,1","h,3",8.0,0\n'
        '" r""2",h1,1.5,0\n'
        '" r""2",h2,3.0,1\n'
    )
    # the parser strips the space around an id, quoted or not
    parsed, rejections = parse_races(text.encode())
    assert rejections == []
    assert parsed == races_of(
        [
            _record("r,1", [('h"1', 2.0, 1), ("h2", 2.5, 0), ("h,3", 8.0, 0)]),
            _record('r"2', [("h1", 1.5, 0), ("h2", 3.0, 1)]),
        ]
    )


# Ids the writer must quote as ``csv.writer`` quotes them in rows ended by
# "\r\n": a bare "\r" too, which Python 3.11's writer leaves unquoted when
# rows end in "\n" alone.
_AWKWARD_IDS = ["a,b", 'a"b', 'say "hi"', "a\nb", "a\rb", "a\r\nb", "a\x00", " a ", "a ", "   ", "", "é"]


def _awkward_races(ids):
    """Races whose race ids and horse ids are ``ids``, in shifted order."""
    n = len(ids)
    return races_of(
        _record(race_id, [(ids[(i + j) % n], 2.0 + j, j == 0) for j in range(3)])
        for i, race_id in enumerate(ids)
    )


def test_writer_quotes_as_csv_writer():
    races = _awkward_races(_AWKWARD_IDS)

    def row_text(fields):  # the row as csv.writer quotes it, ended by "\n"
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(fields)
        return out.getvalue()[:-2] + "\n"

    rows = zip(
        np.repeat(races.race_ids, races.field_size).tolist(),
        races.horse_ids.tolist(),
        map(repr, races.decimal_odds.tolist()),
        races.won.astype(int).tolist(),
    )
    text = races_to_csv_text(races)
    assert text == "".join(map(row_text, [CSV_COLUMNS, *rows]))
    assert text.count('"a\rb"') == 6  # three rows as race id, three as horse id
    assert races_to_csv_text(races_of([])) == HEADER


def test_writer_round_trips_through_parse():
    # ids that stay distinct ids once stripped
    ids = [t for t in _AWKWARD_IDS if t.strip()]
    ids = list({t.strip(): t for t in reversed(ids)}.values())
    races = _awkward_races(ids)
    parsed, rejections = parse_races(races_to_csv_text(races).encode(), overround_delta=math.inf)
    assert rejections == []
    stripped = np.vectorize(str.strip, otypes=[object])
    assert parsed == dataclasses.replace(
        races, race_ids=stripped(races.race_ids), horse_ids=stripped(races.horse_ids)
    )


# --- parse accounting under random malformed input ---------------------------

# Ids that differ only by case or a trailing NUL are distinct (a numpy str
# array would merge the NUL one); quoted fields hold a comma or span two
# lines, so a row's line number is its reader row index + 2, not its line in
# the file.
_FIELDS = st.tuples(
    st.sampled_from(["r1", " r1", "R1", "r1\x00", '"r,1"', "r2", "r3", "r4", "", "  "]),
    st.sampled_from(["h1", "h2", "h3", "h1 ", "H1", "h1\x00", '"h,2"', '"h\n3"', ""]),
    st.sampled_from(
        ["2.0", "3.5", "4", "1e3", " 2.5 ", "1_000", "1.0", "0.5", "-3", "0", "x", "nan", "inf", ""]
    ),
    st.sampled_from(["0", "1", "1", " 1", "1\x00", "2", ""]),
)
_ROWS = st.one_of(
    _FIELDS.map(",".join),
    _FIELDS.map(lambda f: ",".join(f[:3])),  # a field short
    _FIELDS.map(lambda f: ",".join(f + ("extra",))),  # a field over
    st.sampled_from(["", "   "]),  # blank lines
)


def _csv(lines):
    return (HEADER + "".join(f"{l}\n" for l in lines)).encode()


def _fields(line):
    """The fields of one generated row, as the CSV reader splits them."""
    return next(csv.reader([line]), [])


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROWS, max_size=40))
def test_every_race_id_and_every_idless_row_is_accounted_for(lines):
    records, rejections = parse_races(_csv(lines))
    rows = [(number, _fields(l)) for number, l in enumerate(lines, start=2)]
    rows = [(number, f) for number, f in rows if f and (len(f) > 1 or f[0].strip())]
    race_ids = {f[0].strip() for _, f in rows}
    race_ids.discard("")
    idless_lines = [number for number, f in rows if not f[0].strip()]
    accepted = [r.race_id for r in records]
    rejected = [r.race_id for r in rejections if r.race_id is not None]
    # each race id is accepted or rejected exactly once, never both
    assert sorted(accepted + rejected) == sorted(race_ids)
    assert not set(accepted) & set(rejected)
    # each row without a race id is one rejection carrying its line number
    assert [r.line for r in rejections if r.race_id is None] == idless_lines


# --- the columnar parse against the row-at-a-time parser ---------------------

_QUOTES = ["1.1", "2.0", "3", "3.5", "4", "7", "13", "1e3", " 2.5 ", "1_000"]
_BAD_QUOTES = ["1.0", "0.5", "-3", "0", "nan", "inf"]


@st.composite
def _well_formed_races(draw):
    """Races whose rows all pass the row checks, so they reach the race checks.

    Each has one winner and distinct horse ids unless it draws some of these
    faults: a bad quote, a last horse whose id may repeat the first, a
    second winner, no winner.  Races with several faults test the order of
    the checks.
    """
    lines = []
    for race in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 12))
        odds = draw(st.lists(st.sampled_from(_QUOTES), min_size=n, max_size=n))
        horses = [f"h{i}" for i in range(n)]
        won = ["0"] * n
        won[draw(st.integers(0, n - 1))] = "1"
        faults = draw(st.sets(st.sampled_from(["odds", "id", "winner", "no winner"])))
        if "odds" in faults:
            odds[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD_QUOTES))
        if "id" in faults:
            horses[-1] = draw(st.sampled_from([" h0 ", "H0", "h0\x00"]))
        if "no winner" in faults:
            won = ["0"] * n
        if "winner" in faults:
            won[-1] = "1"
        lines += [f"w{race},{h},{o},{w}" for h, o, w in zip(horses, odds, won)]
    return lines


def _view(record):
    """A race as (race id, rows), each row's odds as their exact bits."""
    return record.race_id, [(e.horse_id, e.decimal_odds.hex(), e.won) for e in record.entries]


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.lists(_ROWS, max_size=40), _well_formed_races())
    .map(lambda parts: parts[0] + parts[1])
    .flatmap(st.permutations),
    st.none() | st.integers(0, 15),
)
def test_columnar_parse_matches_row_parser(lines, edge):
    data = _csv(lines)
    delta = DEFAULT_OVERROUND_DELTA
    if edge is not None:
        # the band's edge on one race's left-to-right sum, so that the order
        # in which the sum is added decides whether that race passes
        records, _ = reference_parse.parse_races(data, overround_delta=math.inf)
        if records:
            total = 0.0
            for entry in records[edge % len(records)].entries:  # left to right, as parse adds
                total += 1.0 / entry.decimal_odds
            delta = abs(total - 1.0)
    races, rejections = parse_races(data, overround_delta=delta)
    records, expected = reference_parse.parse_races(data, overround_delta=delta)
    assert [(r.race_id, r.reason, r.line) for r in rejections] == [
        (r.race_id, r.reason, r.line) for r in expected
    ]
    assert [_view(r) for r in races] == [_view(r) for r in records]


_BAD_ODDS = ["x", "", "1..5", "--2", '"3,5"', "2 .0"]


def _block_edge_rows(rng):
    """Rows, one reader row each, over more than 3 parse blocks.

    Races of 2-6 horses at equal odds n (so each sum is 1), the first half
    contiguous and the second scattered over the whole file, with noise rows
    at random places.  Around every block edge the last row of one block and
    the first of the next hold a bad odds text, each in a race of its own;
    one block holds several more.  Race ``r1`` lists its last row as
    `` r1`` two blocks later, and must still be one accepted race.
    """
    races = []
    for i in range(320):
        n = int(rng.integers(2, 7))
        winner = int(rng.integers(n))
        races.append([f"r{i},h{j},{n},{int(j == winner)}" for j in range(n)])
    scattered = [row for race in races[160:] for row in race]
    rng.shuffle(scattered)
    rows = [row for race in races[:160] for row in race] + scattered
    noise = ["", "   ", "r5,h1,2.0", "r6,h1,2.0,1,extra", ",h1,2.0,1", "r7,,2.0,1", "r8,h1,2.0,yes", ",,,"]
    for text in noise * 4:
        rows.insert(int(rng.integers(1, len(rows))), text)
    r1_last = rows.index(races[1][-1])
    rows.insert(2 * _BLOCK_ROWS + 5, " " + rows.pop(r1_last))
    for k, edge in enumerate(range(_BLOCK_ROWS, len(rows), _BLOCK_ROWS)):
        for side, pos in enumerate((edge - 1, edge)):
            rows[pos] = f"e{k}{'ab'[side]},h1,{_BAD_ODDS[(2 * k + side) % len(_BAD_ODDS)]},1"
    for j, pos in enumerate(range(_BLOCK_ROWS + 40, _BLOCK_ROWS + 100, 20)):
        rows[pos] = f"m{j},h1,{_BAD_ODDS[j]},1"
    return rows


def test_block_edges_match_row_parser():
    rows = _block_edge_rows(np.random.default_rng(1604))
    assert len(rows) > 3 * _BLOCK_ROWS
    races, rejections = parse_races(_csv(rows))
    records, expected = reference_parse.parse_races(_csv(rows))
    assert [(r.race_id, r.reason, r.line) for r in rejections] == [
        (r.race_id, r.reason, r.line) for r in expected
    ]
    assert [_view(r) for r in races] == [_view(r) for r in records]
    # what the rows were built to hold reached the parser as intended
    logged = {r.race_id: r.line for r in rejections}
    for k, edge in enumerate(range(_BLOCK_ROWS, len(rows), _BLOCK_ROWS)):
        assert logged[f"e{k}a"] == edge + 1 and logged[f"e{k}b"] == edge + 2
    assert sum(r.race_id.startswith("m") for r in rejections if r.race_id) == 3
    assert sum(r.race_id is None for r in rejections) == 8
    r1_rows = [i for i, row in enumerate(rows) if row.split(",")[0].strip() == "r1"]
    assert r1_rows[0] < _BLOCK_ROWS and r1_rows[-1] >= 2 * _BLOCK_ROWS
    assert next(r for r in races if r.race_id == "r1").field_size == len(r1_rows)
    assert len(races) > 250


def test_ranking_keys_past_16_bits():
    # more than 65,535 races and horse ids, so every integer sort key is 32-bit
    rng = np.random.default_rng(65536)
    count = 70_000
    odds = np.where(rng.random((count, 2)) < 0.3, 2.0, 1.5 + rng.random((count, 2)))
    horse = rng.permutation(10 * count)[: 2 * count].reshape(count, 2)
    duplicated = np.arange(7, count, 997)
    horse[duplicated, 1] = horse[duplicated, 0]  # found only by the 32-bit duplicate sort
    rows = [
        f"r{i},h{h0},{o0!r},1\nr{i},h{h1},{o1!r},0\n"
        for i, ((h0, h1), (o0, o1)) in enumerate(zip(horse.tolist(), odds.tolist()))
    ]
    races, rejections = parse_races((HEADER + "".join(rows)).encode(), overround_delta=math.inf)
    assert [(r.race_id, r.reason) for r in rejections] == [
        (f"r{i}", "duplicate horse id") for i in duplicated.tolist()
    ]
    assert len(races) == count - len(duplicated) > 65_535
    assert len(set(races.horse_ids.tolist())) > 65_535
    table = rank_races(races)
    assert table.tie_count.sum() > 1000
    for i, record in enumerate(races):
        ids, implied, winner, ties = rank_race(record)
        rows = slice(table.offsets[i], table.offsets[i + 1])
        assert list(table.horse_ids[rows]) == ids
        assert table.implied_odds[rows].tolist() == implied  # bit for bit
        assert table.winner_rank[i] == winner
        assert table.tie_count[i] == ties


def test_parse_peak_memory_per_row(tmp_path):
    config = SyntheticDatasetConfig(
        race_count=4_800, field_sizes=FieldSizeHistogram({n: 1 for n in range(5, 17)}), seed=7
    )
    path = tmp_path / "races.csv"
    write_races_csv(generate_synthetic_dataset(config), path)
    tracemalloc.start()
    try:
        races, _ = parse_races(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = int(races.offsets[-1])
    assert rows > 50_000
    assert peak / rows < PEAK_BYTES_PER_ROW

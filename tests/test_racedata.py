import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenstick.analysis import build_report
from brokenstick.racedata import (
    BucketSpec,
    FieldSizeBucket,
    RaceEntry,
    RaceRecord,
    parse_races,
    race_invariant_violation,
    races_to_csv_text,
    rank_races,
    write_races_csv,
)
from reference_ranking import rank_race

HEADER = "race_id,horse_id,decimal_odds,won\n"


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
    assert records == []
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
    write_races_csv([record], path)
    records, rejections = parse_races(path)
    assert rejections == []
    assert records == [record]


def test_tie_break_is_deterministic():
    table = rank_races(
        [
            _record("r1", [("hB", 4.0, 0), ("hA", 4.0, 0), ("hC", 1.34, 1)]),
            # an n=2 race: rank 1 is the favourite, rank 2 is also the longshot
            _record("r2", [("h1", 1.6, 1), ("h2", 2.9, 0)]),
        ]
    )
    assert list(table.horse_ids) == ["hC", "hA", "hB", "h1", "h2"]
    assert list(table.tie_count) == [1, 0]
    assert list(table.winner_rank) == [1, 1]
    assert table.implied_odds[3] == pytest.approx(1 / 1.6)
    assert table.implied_odds[4] == pytest.approx(1 / 2.9)


def test_renormalize_divides_by_total():
    record = _record("r1", [("h1", 2.0, 1), ("h2", 2.2, 0)])
    raw = rank_races([record])
    norm = rank_races([record], renormalize=True)
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
    table = rank_races(records, renormalize=renormalize)
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
    table = rank_races(records)
    keep = table.field_size >= 6
    picked = table.select(keep)
    again = rank_races([r for r, k in zip(records, keep) if k])
    for name in ("race_ids", "offsets", "horse_ids", "implied_odds", "winner_rank", "tie_count"):
        assert np.array_equal(getattr(picked, name), getattr(again, name)), name


@pytest.mark.parametrize(
    "won", [(0, 0), (1, 1)], ids=["no winner", "dead heat"]
)
def test_ranking_needs_one_winner(won):
    record = _record("r7", [("h1", 2.0, won[0]), ("h2", 2.1, won[1])])
    with pytest.raises(ValueError, match="r7"):
        rank_races([_record("r1", [("h1", 2.0, 1), ("h2", 2.1, 0)]), record])


def test_invariant_checker_passes_valid_record():
    record = _record("r1", [("h1", 2.0, 1), ("h2", 2.1, 0)])
    assert race_invariant_violation(record) is None


class TestBuckets:
    def test_default_spec(self):
        spec = BucketSpec.default()
        names = [b.name for b in spec.buckets]
        assert names == ["all", "small", "medium", "large"]
        all_bucket = spec.buckets[0]
        assert all_bucket.contains(5) and not all_bucket.contains(4)
        assert spec.buckets[1].label() == "5<=n<=7"
        assert spec.buckets[3].label() == "n>=11"

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            FieldSizeBucket("bad", 7, 5)
        with pytest.raises(ValueError):
            FieldSizeBucket("bad", 0)
        with pytest.raises(ValueError):
            BucketSpec((FieldSizeBucket("a", 5), FieldSizeBucket("a", 8)))

    def test_contains_is_elementwise(self):
        sizes = np.array([4, 5, 7, 8, 12])
        assert list(FieldSizeBucket("small", 5, 7).contains(sizes)) == [0, 1, 1, 0, 0]
        assert list(FieldSizeBucket("all", 5).contains(sizes)) == [0, 1, 1, 1, 1]

    def test_field_size_histogram_per_bucket(self):
        races = rank_races(
            [
                _record("r1", [(f"h{i}", 5.0, i == 1) for i in range(1, 6)]),
                _record("r2", [(f"h{i}", 5.0, i == 1) for i in range(1, 6)]),
                _record("r3", [(f"h{i}", 9.0, i == 1) for i in range(1, 10)]),
            ]
        )

        def histogram(bucket):
            return build_report(races, BucketSpec((bucket,))).buckets[0].histogram

        assert histogram(FieldSizeBucket("small", 5, 7)).counts == {5: 2}
        assert histogram(FieldSizeBucket("all", 5)).counts == {5: 2, 9: 1}
        with pytest.raises(ValueError, match="large"):
            histogram(FieldSizeBucket("large", 11))


def test_csv_round_trip_preserves_floats():
    record = _record("r1", [("h1", 2.3456789012345678, 1), ("h2", 1.7654321098765432, 0)])
    text = races_to_csv_text([record])
    parsed, _ = parse_races(text.encode())
    assert parsed[0].entries[0].decimal_odds == record.entries[0].decimal_odds
    assert parsed[0].entries[1].decimal_odds == record.entries[1].decimal_odds


# --- parse accounting under random malformed input ---------------------------

_FIELDS = st.tuples(
    st.sampled_from(["r1", " r1", "r2", "r3", "r4", "", "  "]),
    st.sampled_from(["h1", "h2", "h3", "h1 ", ""]),
    st.sampled_from(["2.0", "3.5", "4", "1e3", "1.0", "0.5", "x", "nan", "inf", ""]),
    st.sampled_from(["0", "1", "1", "2", ""]),
)
_ROWS = st.one_of(
    _FIELDS.map(",".join),
    _FIELDS.map(lambda f: ",".join(f[:3])),  # a field short
    _FIELDS.map(lambda f: ",".join(f + ("extra",))),  # a field over
    st.sampled_from(["", "   "]),  # blank lines
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROWS, max_size=40))
def test_every_race_id_and_every_idless_row_is_accounted_for(lines):
    records, rejections = parse_races((HEADER + "".join(f"{l}\n" for l in lines)).encode())
    race_ids = {l.split(",")[0].strip() for l in lines if l.strip()}
    race_ids.discard("")
    idless_lines = [
        number for number, l in enumerate(lines, start=2)
        if l.strip() and not l.split(",")[0].strip()
    ]
    accepted = [r.race_id for r in records]
    rejected = [r.race_id for r in rejections if r.race_id is not None]
    # each race id is accepted or rejected exactly once, never both
    assert sorted(accepted + rejected) == sorted(race_ids)
    assert not set(accepted) & set(rejected)
    # each row without a race id is one rejection carrying its line number
    assert [r.line for r in rejections if r.race_id is None] == idless_lines

"""The tables-24k input generator: deterministic, with exact expected counts."""

import pytest

from bench import workloads
from bench.racegen import REASONS, generate
from brokenstick import analysis, racedata


def test_same_seed_same_bytes_and_other_seed_other_bytes():
    first, expected = generate(7, 400)
    again, expected_again = generate(7, 400)
    other, _ = generate(8, 400)
    assert first == again and expected == expected_again
    assert first != other
    assert first.startswith(b"race_id,horse_id,decimal_odds,won\n")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_injected_faults_are_exactly_what_parse_races_rejects(seed):
    data, expected = generate(seed, 3_000)
    records, rejections = racedata.parse_races(data)
    counts = workloads.rejection_counts(rejections)
    assert dict(counts) == {slug: n for slug, n in expected["rejected"].items() if n}
    assert all(expected["rejected"][slug] > 0 for slug in REASONS)
    assert len(records) == expected["accepted"]
    assert len(records) + len(rejections) == expected["races"]
    assert sum(len(r.entries) for r in records) == expected["accepted_rows"]
    assert data.count(b"\n") - 1 == expected["rows"]

    report = analysis.build_report(racedata.rank_races(records))
    res = workloads.Result()
    workloads.check_tables(res, "pass0/", expected, records, rejections, report)
    assert res.failed_ops == {}
    assert expected["below_min_field_size"] > 0  # the field-size cut does work


def test_tables_check_flags_a_missing_rejection():
    data, expected = generate(4, 2_000)
    records, rejections = racedata.parse_races(data)
    report = analysis.build_report(racedata.rank_races(records))
    res = workloads.Result()
    workloads.check_tables(res, "pass0/", expected, records, rejections[1:], report)
    assert list(res.failed_ops) == ["pass0/"]

import csv
import json

import numpy as np
import pytest

from brokenstick.analysis import (
    RANK_SELECTORS,
    RANK_STATISTICS,
    build_report,
    cells_from_json,
    curve_to_csv_text,
    eccdf_per_rank,
    report_cells,
    report_to_csv_text,
    report_to_json_text,
)
from brokenstick.montecarlo import SimConfig, estimate_ccdf
from brokenstick.orderstats import (
    FieldSizeHistogram,
    ccdf_kth_largest_grid,
    mean_kth_largest,
    pooled_conditional_mean_given_win,
    quantile_grid,
)
from brokenstick.racedata import RaceEntry, RaceRecord, rank_races
from brokenstick.stats import EccdfCurve, empirical_survival
from brokenstick.synth import SyntheticDatasetConfig, generate_synthetic_dataset
from race_columns import races_of


def _race(race_id, odds, winner_index):
    entries = tuple(
        RaceEntry(f"h{i+1:02d}", o, i == winner_index) for i, o in enumerate(odds)
    )
    return RaceRecord(race_id, entries)


def _synthetic_races(count, sizes, seed, noise=0.0):
    config = SyntheticDatasetConfig(
        race_count=count, field_sizes=sizes, seed=seed, odds_noise=noise
    )
    return rank_races(generate_synthetic_dataset(config))


def _bucket(races, min_field_size=5):
    """The report of bucket ``all``: every race of size >= min_field_size."""
    return build_report(races, min_field_size).buckets[0]


def test_single_race_win_frequencies():
    # rank-3 horse won: P(3) = 1, every other rank 0
    races = rank_races(races_of([_race("r1", [2.5, 3.5, 5.0, 9.0, 19.0], 2)]))
    cells = _bucket(races).cells
    assert cells["3", "win_frequency"].value == 1.0
    assert cells["1", "win_frequency"].value == 0.0
    assert cells["2", "win_frequency"].value == 0.0
    assert cells["4", "win_frequency"].value == 0.0
    assert cells["longshot", "win_frequency"].value == 0.0


def test_win_frequencies_sum_to_one_over_fixed_ranks():
    races = _synthetic_races(300, [5, 8, 11] * 100, seed=41)
    cells = _bucket(races).cells
    # rank cells share the denominator only when every race has n >= k;
    # reconstruct the full frequency vector directly
    total = len(races)
    sizes, winner_rank = races.field_size, races.winner_rank
    freq = {}
    for k in range(1, 12):
        wins = int(np.sum((sizes >= k) & (winner_rank == k)))
        freq[k] = wins / total
    assert abs(sum(freq.values()) - 1.0) < 1e-12
    # and the reported fixed-rank cells agree with the reconstruction
    for k in (1, 2, 3, 4):
        usable = sizes >= k
        wins = int(np.sum(winner_rank[usable] == k))
        assert cells[str(k), "win_frequency"].value == pytest.approx(wins / usable.sum())


def test_theory_column_is_bucket_mixture():
    races = _synthetic_races(60, [5, 9] * 30, seed=17)
    hist = FieldSizeHistogram.from_sizes(races.field_size)
    w5 = hist.weights()[5]
    cells = _bucket(races).cells
    for sel in RANK_SELECTORS:
        z_cell = cells[str(sel), "segment_mean_theory"]
        if sel == "longshot":
            expected = w5 * mean_kth_largest(5, 5) + (1 - w5) * mean_kth_largest(9, 9)
        else:
            expected = w5 * mean_kth_largest(5, sel) + (1 - w5) * mean_kth_largest(9, sel)
        assert z_cell.value == pytest.approx(expected, abs=1e-12)


def test_conditional_cells_marked_absent_without_wins():
    # hand-built races where the longshot never wins
    races = rank_races(
        races_of([_race(f"r{i}", [2.5, 3.5, 5.0, 9.0, 19.0], 0) for i in range(4)])
    )
    cells = _bucket(races).cells
    assert cells["longshot", "implied_odds_given_win"].value is None
    assert cells["longshot", "implied_odds_given_win"].note == "no wins at this rank"
    assert cells["1", "implied_odds_given_win"].value is not None


def test_winner_odds_average_single_race():
    races = rank_races(races_of([_race("r1", [2.0, 4.0, 8.0, 16.0, 19.0], 0)]))
    cells = _bucket(races).cells
    empirical, theory = cells["winner", "winner_odds_mean"], cells["winner", "winner_segment_mean_theory"]
    assert empirical.value == pytest.approx(0.5)
    assert theory.value == pytest.approx(2.0 / 6.0)


def test_cells_keep_writing_order_with_an_absent_rank():
    # field sizes 2 and 3 only: rank 4 has no races and its cells are absent
    races = _synthetic_races(40, [2, 3] * 20, seed=8)
    report = build_report(races, 2)
    assert [b.bucket.name for b in report.buckets] == ["all"]  # no race reaches small's 5
    keys = [(label, statistic)
            for label in ("1", "2", "3", "4", "longshot") for statistic in RANK_STATISTICS]
    keys += [("winner", "winner_odds_mean"), ("winner", "winner_segment_mean_theory")]
    cells = report.buckets[0].cells
    assert list(cells) == keys
    assert {cells["4", statistic].note for statistic in RANK_STATISTICS} == {
        "no races with field size >= 4"
    }
    rows = list(csv.reader(report_to_csv_text(report).splitlines()))[1:]
    assert [tuple(row[:3]) for row in rows] == [("all", *key) for key in keys]


@pytest.mark.parametrize("renormalize", [False, True])
def test_report_labels_renormalization_as_the_table_is(renormalize):
    table = rank_races(
        generate_synthetic_dataset(SyntheticDatasetConfig(race_count=20, field_sizes=[6] * 20, seed=4)),
        renormalize=renormalize,
    )
    report = build_report(table)
    assert report.renormalized is renormalize
    assert json.loads(report_to_json_text(report))["renormalized"] is renormalize
    assert table.select(table.field_size >= 5).renormalized is renormalize


def test_report_completeness():
    races = _synthetic_races(500, [5, 6, 9, 12] * 125, seed=23)
    report = build_report(races)
    for key, cell in report_cells(report).items():
        assert cell.value is not None or cell.note, key


def test_report_csv_and_json_carry_identical_values():
    races = _synthetic_races(200, [5, 8] * 100, seed=5)
    report = build_report(races)
    csv_text = report_to_csv_text(report)
    json_cells = cells_from_json(json.loads(report_to_json_text(report)))

    parsed = {}
    for line in csv_text.splitlines()[1:]:
        bucket, rank, statistic, value, se, count, note = line.split(",")
        parsed[(bucket, rank, statistic)] = (
            None if value == "" else float(value),
            None if se == "" else float(se),
            int(count),
        )
    assert set(parsed) == set(json_cells)
    for key, (value, se, count) in parsed.items():
        cell = json_cells[key]
        assert cell.value == value
        assert cell.se == se
        assert cell.count == count


def test_report_cells_round_trip_through_json():
    races = _synthetic_races(150, [6, 10] * 75, seed=6)
    report = build_report(races)
    direct = report_cells(report)
    via_json = cells_from_json(json.loads(report_to_json_text(report)))
    assert direct == via_json


@pytest.mark.parametrize(
    "document, message",
    [([], "missing 'buckets'"),
     ({"buckets": 5}, "'buckets' is not a list"),
     ({"buckets": [{"name": "all", "ranks": []}]}, "missing 'winner'"),
     ({"buckets": [{"name": "all", "ranks": [{"rank": "1", "statistics": []}]}]},
      "'statistics' is not a dict"),
     ({"buckets": [{"name": "all", "ranks": [], "winner": {"winner_odds_mean": {}}}]},
      "missing 'value'")],
)
def test_cells_from_json_names_what_a_non_report_lacks(document, message):
    with pytest.raises(ValueError, match=f"^not a report: {message}$"):
        cells_from_json(document)


def test_min_field_size_drops_races():
    races = _synthetic_races(20, [4, 9] * 10, seed=2)
    report = build_report(races, min_field_size=5)
    assert report.buckets[0].races == 10
    report_all = build_report(races, min_field_size=4)
    assert report_all.buckets[0].races == 20


def test_eccdf_trivia():
    races = _synthetic_races(300, [7] * 300, seed=10)
    empirical, theory = eccdf_per_rank(races, 1)
    # both curves sit on the sorted distinct favourite odds
    values = races.implied_odds[races.offsets[:-1]]
    assert np.array_equal(empirical.x, np.unique(values))
    assert np.array_equal(theory.x, empirical.x)
    # all implied odds are positive, so survival at 0 is 1; none exceeds the largest
    assert empirical_survival(values, [0.0])[0] == 1.0
    assert empirical.survival[-1] == 0.0
    assert np.all(np.diff(empirical.survival) <= 0)
    assert np.all(np.diff(theory.survival) <= 0)
    assert np.all((theory.survival > 0) & (theory.survival <= 1))


def test_eccdf_pooling_matches_single_field_size_estimator():
    # with one field size, the pooled curve is an MC estimate of the plain law
    races = _synthetic_races(4000, [7] * 4000, seed=29)
    empirical, theory = eccdf_per_rank(races, 2)
    assert np.allclose(theory.survival, ccdf_kth_largest_grid(7, 2, empirical.x))
    # the empirical step curve read at a quantile grid
    xs = quantile_grid(7, 2, 10)
    step = np.searchsorted(empirical.x, xs, side="right") - 1
    pipeline = np.where(step >= 0, empirical.survival[step], 1.0)
    assert np.array_equal(pipeline, empirical_survival(races.implied_odds[races.offsets[:-1] + 1], xs))
    mc_p, mc_se = estimate_ccdf(7, 2, xs, SimConfig(samples=4000, seed=77))
    pipeline_se = np.sqrt(pipeline * (1 - pipeline) / 4000)
    combined = np.sqrt(mc_se**2 + pipeline_se**2)
    assert np.all(np.abs(pipeline - mc_p) <= 5 * combined)


def test_noise_free_market_is_efficient():
    # E[Q_(k)] and E[P_(k)] agree within 5 SE on a clean synthetic market
    races = _synthetic_races(4000, [9] * 4000, seed=31)
    cells = _bucket(races).cells
    for sel in RANK_SELECTORS:
        q_cell, p_cell, z_cell = (
            cells[str(sel), statistic]
            for statistic in ("mean_implied_odds", "win_frequency", "segment_mean_theory")
        )
        se = np.hypot(q_cell.se, p_cell.se)
        assert abs(q_cell.value - p_cell.value) <= 5 * se
        assert abs(q_cell.value - z_cell.value) <= 5 * q_cell.se


def test_conditional_theory_uses_pooled_ratio():
    races = _synthetic_races(100, [5, 12] * 50, seed=13)
    hist = FieldSizeHistogram.from_sizes(races.field_size)
    cells = _bucket(races).cells
    for sel in RANK_SELECTORS:
        assert cells[str(sel), "segment_mean_given_win_theory"].value == pytest.approx(
            pooled_conditional_mean_given_win(hist, sel), abs=1e-12
        )


def test_pipeline_recovers_fixed_field_law():
    # 12000 noise-free races, all with 9 horses: the mean implied odds and
    # the win frequency of the favourite both estimate H(9,1)/9, and the
    # winner's mean odds estimate 2/10 (theory column exact)
    races = _synthetic_races(12_000, [9] * 12_000, seed=424)
    cells = _bucket(races).cells
    expected = mean_kth_largest(9, 1)
    q_cell, p_cell, z_cell = (
        cells["1", statistic]
        for statistic in ("mean_implied_odds", "win_frequency", "segment_mean_theory")
    )
    assert z_cell.value == pytest.approx(expected, abs=1e-12)
    assert abs(q_cell.value - expected) <= 3 * q_cell.se
    assert abs(p_cell.value - expected) <= 3 * p_cell.se

    empirical, theory = cells["winner", "winner_odds_mean"], cells["winner", "winner_segment_mean_theory"]
    assert theory.value == pytest.approx(0.2, abs=1e-12)
    assert abs(empirical.value - 0.2) <= 3 * empirical.se

    # rank-frequency identity: every rank's win share matches its mean length
    from brokenstick.orderstats import SegmentLaw

    law = SegmentLaw(9)
    wins = np.bincount(races.winner_rank - 1, minlength=9)
    freq = wins / len(races)
    se = np.sqrt(freq * (1 - freq) / len(races))
    assert np.all(np.abs(freq - law.means()) <= 5 * se)


def test_conditional_mean_two_horse_races():
    # winner-conditioned favourite odds converge to 7/9 at n = 2
    races = _synthetic_races(100_000, [2] * 100_000, seed=77)
    cells = _bucket(races, 2).cells
    q_win, theory = cells["1", "implied_odds_given_win"], cells["1", "segment_mean_given_win_theory"]
    assert theory.value == pytest.approx(7 / 9, abs=1e-12)
    assert abs(q_win.value - 7 / 9) <= 3 * q_win.se


def test_noise_inflates_longshot_misranking():
    # with jittered quotes the market's longshot is often not the truly
    # weakest horse, so its observed win share exceeds the smallest-segment
    # prediction by far more (relatively) than any other rank's discrepancy
    races = _synthetic_races(6000, FieldSizeHistogram({n: 1 for n in range(5, 13)}),
                             seed=3, noise=0.3)
    rel_gap = {}
    cells = _bucket(races).cells
    for sel in RANK_SELECTORS:
        p_cell, z_cell = cells[str(sel), "win_frequency"], cells[str(sel), "segment_mean_theory"]
        rel_gap[sel] = (p_cell.value - z_cell.value) / z_cell.value
    assert rel_gap["longshot"] > 0.10
    assert rel_gap["longshot"] > max(abs(g) for s, g in rel_gap.items() if s != "longshot")


def test_curve_csv_format():
    races = _synthetic_races(10, [5] * 10, seed=4)
    empirical, _ = eccdf_per_rank(races, 1)
    text = curve_to_csv_text(empirical)
    lines = text.splitlines()
    assert lines[0] == "x,survival"
    assert len(lines) == len(empirical) + 1
    x, s = lines[1].split(",")
    float(x), float(s)


@pytest.mark.parametrize("digits", [4, 10, 17])
def test_curve_csv_matches_per_point_format(digits):
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, 5e-324, tiny / 2, -tiny / 3, tiny, 1e16, 123456789012.0,
               np.inf, -np.inf, np.nan, 1.0, 0.1, 9.9999999995e-5]
    rng = np.random.default_rng(2024)
    scale = 10.0 ** rng.integers(-300, 300, 5000)
    values = np.concatenate([special, rng.random(5000), rng.standard_normal(5000) * scale])
    curve = EccdfCurve(np.sort(values), values)  # nan sorts last and passes the order check
    reference = ["x,survival"] + [f"{x:.{digits}g},{s:.{digits}g}" for x, s in zip(curve.x, curve.survival)]
    text = curve_to_csv_text(curve, digits)
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert len(lines) == len(reference)
    wrong = [(got, want) for got, want in zip(lines, reference) if got != want]
    assert not wrong, wrong[:5]

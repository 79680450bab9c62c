import numpy as np
import pytest

from brokenstick.orderstats import FieldSizeHistogram
from brokenstick.racedata import parse_races, races_to_csv_text
from brokenstick.synth import SyntheticDatasetConfig, generate_synthetic_dataset


class TestConfigValidation:
    def test_race_count(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(race_count=0, field_sizes=[5])

    def test_single_horse_fields_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            SyntheticDatasetConfig(race_count=1, field_sizes=FieldSizeHistogram({1: 1}))
        with pytest.raises(ValueError, match="n >= 2"):
            SyntheticDatasetConfig(race_count=1, field_sizes=[1])

    def test_empty_support(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(race_count=1, field_sizes=FieldSizeHistogram({}))

    def test_explicit_list_length(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(race_count=3, field_sizes=[5, 6])

    def test_noise_nonnegative(self):
        with pytest.raises(ValueError):
            SyntheticDatasetConfig(race_count=1, field_sizes=[5], odds_noise=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_noise_finite(self, noise):
        with pytest.raises(ValueError, match="odds_noise must be finite and >= 0"):
            SyntheticDatasetConfig(race_count=1, field_sizes=[5], odds_noise=noise)


def test_generated_races_are_valid_and_efficient():
    config = SyntheticDatasetConfig(race_count=50, field_sizes=[6] * 50, seed=4)
    records = generate_synthetic_dataset(config)
    assert len(records) == 50
    assert len({r.race_id for r in records}) == 50
    for record in records:
        assert record.field_size == 6
        assert sum(e.won for e in record.entries) == 1
        assert len({e.horse_id for e in record.entries}) == 6
        assert all(e.decimal_odds > 1.0 for e in record.entries)
        # noise-free market: implied odds are the true probabilities
        total = 0.0
        for entry in record.entries:
            total += 1.0 / entry.decimal_odds
        assert abs(total - 1.0) < 1e-9


def test_field_sizes_drawn_from_histogram_support():
    hist = FieldSizeHistogram({5: 1, 9: 3})
    config = SyntheticDatasetConfig(race_count=200, field_sizes=hist, seed=6)
    records = generate_synthetic_dataset(config)
    sizes = {r.field_size for r in records}
    assert sizes <= {5, 9}
    assert len(sizes) == 2  # 200 draws at 1:3 odds hit both sizes


def test_noise_preserves_simplex_but_changes_quotes():
    clean = generate_synthetic_dataset(
        SyntheticDatasetConfig(race_count=20, field_sizes=[7] * 20, seed=12)
    )
    noisy = generate_synthetic_dataset(
        SyntheticDatasetConfig(race_count=20, field_sizes=[7] * 20, seed=12, odds_noise=0.5)
    )
    for record in noisy:
        total = 0.0
        for entry in record.entries:
            total += 1.0 / entry.decimal_odds
        assert abs(total - 1.0) < 1e-9
    assert [r.field_size for r in clean] == [r.field_size for r in noisy]
    assert clean[0].entries != noisy[0].entries


def test_deterministic_in_seed():
    config = SyntheticDatasetConfig(race_count=30, field_sizes=[5] * 30, seed=99)
    a = generate_synthetic_dataset(config)
    b = generate_synthetic_dataset(config)
    assert a == b
    assert races_to_csv_text(a) == races_to_csv_text(b)
    c = generate_synthetic_dataset(
        SyntheticDatasetConfig(race_count=30, field_sizes=[5] * 30, seed=100)
    )
    assert a != c


def test_round_trips_through_parser():
    config = SyntheticDatasetConfig(race_count=40, field_sizes=[5, 9] * 20, seed=3)
    records = generate_synthetic_dataset(config)
    text = races_to_csv_text(records)
    parsed, rejections = parse_races(text.encode())
    assert rejections == []
    assert parsed == records


def test_shuffled_horse_order():
    # entry order must not always equal the sorted-probability order
    config = SyntheticDatasetConfig(race_count=30, field_sizes=[8] * 30, seed=1)
    records = generate_synthetic_dataset(config)
    descending = [
        all(a.decimal_odds <= b.decimal_odds for a, b in zip(r.entries, r.entries[1:]))
        for r in records
    ]
    assert not all(descending)


def test_winner_frequency_tracks_probability():
    # with one dominant segment the favourite should win most races
    config = SyntheticDatasetConfig(race_count=400, field_sizes=[2] * 400, seed=8)
    records = generate_synthetic_dataset(config)
    favourite_wins = 0
    for record in records:
        favourite = min(record.entries, key=lambda e: e.decimal_odds)
        favourite_wins += favourite.won
    # favourite wins with probability 3/4; binomial 5 sigma band
    assert abs(favourite_wins / 400 - 0.75) < 5 * np.sqrt(0.75 * 0.25 / 400)


def test_synth_golden_values():
    # pins the synth stream: field sizes first, then per distinct n in
    # ascending order the divisions with winners, the noise and the horse
    # order; a change here breaks stored reproducibility
    expected = {
        ("uniform-cuts", 0.0): [
            ("h06", 103.22599659301038, False),
            ("h03", 7.156771471661161, False),
            ("h04", 8.380637723860925, True),
            ("h02", 5.944424874746368, False),
            ("h01", 1.917761254803668, False),
            ("h05", 24.040858055666984, False),
        ],
        ("uniform-cuts", 0.3): [
            ("h01", 2.8373000184702986, False),
            ("h05", 6.155998048246957, False),
            ("h04", 6.994816660424972, False),
            ("h02", 6.255348787899709, True),
            ("h03", 6.18636087139025, False),
            ("h06", 48.456787988095286, False),
        ],
        ("exponential-ratio", 0.0): [
            ("h05", 17.766561360114192, True),
            ("h02", 5.835097312560811, False),
            ("h03", 7.619327937706701, False),
            ("h01", 1.9974086287804382, False),
            ("h06", 20.873710767967744, False),
            ("h04", 10.806519098303568, False),
        ],
        ("exponential-ratio", 0.3): [
            ("h03", 6.052109093252947, False),
            ("h02", 4.3898453344343595, False),
            ("h04", 9.448918699928402, True),
            ("h06", 2499.6751553938907, False),
            ("h05", 192.7991784644066, False),
            ("h01", 2.0179562783511455, False),
        ],
    }
    hist = FieldSizeHistogram({n: 1 for n in range(5, 9)})
    for (construction, noise), entries in expected.items():
        records = generate_synthetic_dataset(
            SyntheticDatasetConfig(race_count=20, field_sizes=hist, seed=2024,
                                   odds_noise=noise, construction=construction)
        )
        assert [r.field_size for r in records] == [
            6, 7, 5, 7, 7, 6, 7, 8, 5, 5, 8, 7, 7, 7, 8, 7, 7, 5, 7, 7
        ]
        first = records[0].entries
        assert [(e.horse_id, e.won) for e in first] == [(h, w) for h, _, w in entries]
        assert [e.decimal_odds for e in first] == pytest.approx([o for _, o, _ in entries], rel=1e-14)


def test_explicit_field_sizes_keep_race_order():
    # races are drawn grouped by field size but listed in the given order
    sizes = [9, 2, 5, 2, 9, 3, 5, 5, 2, 7]
    records = generate_synthetic_dataset(
        SyntheticDatasetConfig(race_count=len(sizes), field_sizes=sizes, seed=11)
    )
    assert [r.race_id for r in records] == [f"r{i + 1:06d}" for i in range(len(sizes))]
    assert [r.field_size for r in records] == sizes
    for record in records:
        assert sorted(e.horse_id for e in record.entries) == [
            f"h{k:02d}" for k in range(1, record.field_size + 1)
        ]
        assert sum(e.won for e in record.entries) == 1

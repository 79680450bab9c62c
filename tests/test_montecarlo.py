import dataclasses

import numpy as np
import pytest

import mc_reference
import test_mc_golden
from ks_reference import ks_critical_value, ks_statistic_two_sample
from time_montecarlo import traced_peak_mb
from brokenstick import montecarlo
from brokenstick.montecarlo import (
    CONSTRUCTIONS,
    SimConfig,
    chunk_rng,
    estimate_ccdf,
    estimate_ccdf_all_ranks,
    estimate_mean,
    estimate_second_moment,
    estimate_winner_stats,
    sample_divisions,
    sample_races,
)
from brokenstick.orderstats import SegmentLaw, ccdf_kth_largest, quantile_grid


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(samples=0)
        with pytest.raises(ValueError):
            SimConfig(samples=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(samples=10, seed=2**64)
        with pytest.raises(ValueError):
            SimConfig(samples=10, construction="dirichlet")
        with pytest.raises(ValueError):
            SimConfig(samples=10, chunk_size=0)

    def test_chunks_cover_budget(self):
        config = SimConfig(samples=250, chunk_size=100)
        assert list(config.chunks()) == [(0, 100), (1, 100), (2, 50)]
        config = SimConfig(samples=100, chunk_size=100)
        assert list(config.chunks()) == [(0, 100)]


def test_rng_golden_values():
    # pins the generator algorithm: Philox keyed by SeedSequence(seed,
    # spawn_key=(chunk,)); a change here breaks stored reproducibility
    division = sample_divisions(5, 1, chunk_rng(42, 0), "uniform-cuts")[0]
    expected = [
        0.5438065243315842,
        0.226463785976469,
        0.18398429463748722,
        0.035759256695083175,
        0.00998613835937645,
    ]
    assert division == pytest.approx(expected, abs=1e-15)

    division = sample_divisions(5, 1, chunk_rng(42, 0), "exponential-ratio")[0]
    expected = [
        0.38077288649786384,
        0.29389528699932393,
        0.11231757457634821,
        0.1115009402353699,
        0.10151331169109416,
    ]
    assert division == pytest.approx(expected, abs=1e-15)

    # distinct chunks draw from independent streams
    division = sample_divisions(3, 1, chunk_rng(42, 1), "uniform-cuts")[0]
    expected = [0.42403653009372955, 0.34911809783582737, 0.22684537207044309]
    assert division == pytest.approx(expected, abs=1e-15)


def test_degenerate_rows_are_resampled():
    from brokenstick.montecarlo import _resample_degenerate

    replacement = np.array([[0.6, 0.4]])
    calls = []

    def sampler(count):
        calls.append(count)
        return np.repeat(replacement, count, axis=0)

    segments = np.array([[0.5, 0.5], [0.0, 1.0], [np.nan, 1.0], [np.inf, 0.2], [0.3, 0.7]])
    fixed = _resample_degenerate(segments, sampler)
    assert calls == [3]
    assert fixed.tolist() == [[0.5, 0.5], [0.6, 0.4], [0.6, 0.4], [0.6, 0.4], [0.3, 0.7]]

    # each kind of degenerate row is caught on its own
    for bad_row in ([0.0, 1.0], [np.nan, 1.0], [np.inf, 0.2], [-0.1, 1.1]):
        calls.clear()
        fixed = _resample_degenerate(np.array([[0.5, 0.5], bad_row]), sampler)
        assert calls == [1]
        assert fixed.tolist() == [[0.5, 0.5], [0.6, 0.4]]

    # a clean chunk is returned as it is, without a redraw
    calls.clear()
    clean = np.array([[0.5, 0.5], [5e-324, 1.0]])
    assert _resample_degenerate(clean, sampler) is clean
    assert calls == []


def test_degenerate_row_is_redrawn_inside_its_slab():
    # the redraw takes the next rows of the stream, before the next slab's
    class Rigged:
        def __init__(self):
            self.rng, self.calls = chunk_rng(3, 0), 0

        def random(self, shape):
            x = self.rng.random(shape)
            if self.calls == 0:
                x[0] = 0.5  # coincident cuts: a zero-length segment
            self.calls += 1
            return x

    slab = montecarlo._SLAB
    out = sample_divisions(3, slab + 10, Rigged())
    cuts = np.sort(chunk_rng(3, 0).random((slab + 11, 2)), axis=1)
    stream = np.sort(np.diff(cuts, axis=1, prepend=0.0, append=1.0), axis=1)[:, ::-1]
    assert np.array_equal(out[0], stream[slab])
    assert np.array_equal(out[1:slab], stream[1:slab])
    assert np.array_equal(out[slab:], stream[slab + 1:])


def test_sample_divisions_validation():
    rng = chunk_rng(0, 0)
    with pytest.raises(ValueError):
        sample_divisions(0, 5, rng)
    with pytest.raises(ValueError):
        sample_divisions(3, 5, rng, construction="bogus")


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_division_invariants(construction):
    rng = chunk_rng(1, 0)
    segments = sample_divisions(6, 500, rng, construction)
    assert segments.shape == (500, 6)
    assert np.all(segments > 0.0)
    assert np.abs(segments.sum(axis=1) - 1.0).max() < 1e-12
    assert np.all(np.diff(segments, axis=1) <= 0.0)  # sorted descending


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_single_segment_division(construction):
    rng = chunk_rng(1, 0)
    assert list(sample_divisions(1, 3, rng, construction)[0]) == [1.0]


def test_single_segment_cuts_draw_nothing():
    # n = 1 cuts nowhere, so the winner's point is the chunk's first draw
    rng = chunk_rng(1, 0)
    segments, winners = sample_races(1, 3, rng)
    assert segments.tolist() == [[1.0]] * 3 and winners.tolist() == [1, 1, 1]
    assert rng.random() == chunk_rng(1, 0).random(4)[3]


def test_estimators_reproducible_and_thread_invariant():
    config = SimConfig(samples=50_000, seed=9, chunk_size=8_000)
    xs = quantile_grid(4, 2, 10)
    p1, se1 = estimate_ccdf(4, 2, xs, config)
    p2, se2 = estimate_ccdf(4, 2, xs, config)
    p4, se4 = estimate_ccdf(4, 2, xs, config, workers=4)
    assert np.array_equal(p1, p2) and np.array_equal(se1, se2)
    assert np.array_equal(p1, p4) and np.array_equal(se1, se4)

    m1 = estimate_mean(4, 2, config, workers=1)
    m4 = estimate_mean(4, 2, config, workers=4)
    assert m1 == m4

    # at n=40 the last ranks go whole chunks without a win; rank 40 never
    # wins (NaN cells) and one rank wins once (SE 0)
    sparse = SimConfig(samples=2_000, seed=10, chunk_size=250)
    for n, cfg in ((4, config), (40, sparse)):
        w1 = estimate_winner_stats(n, cfg, workers=1)
        w4 = estimate_winner_stats(n, cfg, workers=4)
        for field in dataclasses.fields(w1):
            a, b = getattr(w1, field.name), getattr(w4, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), field.name
            else:
                assert a == b, field.name
    assert np.isnan(w1.conditional_se[-1]) and 1 in w1.win_counts
    assert w1.conditional_se[list(w1.win_counts).index(1)] == 0.0


def test_estimate_ccdf_validation():
    config = SimConfig(samples=10)
    with pytest.raises(ValueError):
        estimate_ccdf(3, 0, [0.1], config)
    with pytest.raises(ValueError):
        estimate_ccdf(3, 1, [], config)
    with pytest.raises(ValueError):
        estimate_ccdf(3, 1, [0.5, 0.1], config)


_TEN = SimConfig(samples=10)


@pytest.mark.parametrize("call,args", [
    (estimate_mean, (5, True, _TEN)),  # was rank 1's estimate
    (estimate_ccdf, (5, True, [0.1], _TEN)),
    (estimate_mean, (5, 2.0, _TEN)),  # was IndexError
    (estimate_second_moment, (5.0, 2, _TEN)),  # was TypeError
    (estimate_ccdf_all_ranks, (5.0, [0.1], _TEN)),
    (estimate_winner_stats, (True, _TEN)),
    (sample_divisions, (5.0, 10, chunk_rng(0, 0))),
    (sample_races, (True, 10, chunk_rng(0, 0))),
    (SimConfig, (True,)),
    (SimConfig, (2.5,)),
    (SimConfig, (10, 1.5)),  # seed
    (SimConfig, (10, 0, "uniform-cuts", 2.5)),  # chunk_size
])
def test_non_integer_sizes_ranks_and_budgets_are_rejected(call, args):
    with pytest.raises(ValueError, match="field size must be|rank k=|must be an integer"):
        call(*args)


@pytest.mark.parametrize("xs", [[0.1, float("nan")], [float("nan"), 0.1]])
def test_estimate_ccdf_rejects_nan(xs):
    # NaN fails every comparison, so [nan, 0.1] passed the ascending check
    # and a NaN column read survival 0
    with pytest.raises(ValueError, match="NaN"):
        estimate_ccdf_all_ranks(3, xs, SimConfig(samples=10))


def test_estimate_ccdf_at_zero_is_exactly_one():
    config = SimConfig(samples=5_000, seed=2)
    p, se = estimate_ccdf(4, 2, [0.0], config)
    assert p[0] == 1.0
    assert se[0] == 0.0


def test_estimate_ccdf_matches_closed_form():
    config = SimConfig(samples=100_000, seed=3)
    p, se = estimate_ccdf(3, 3, [0.2], config)
    assert abs(p[0] - 0.16) <= 5 * se[0]
    p, se = estimate_ccdf(2, 1, [0.75], config)
    assert abs(p[0] - 0.5) <= 5 * se[0]


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_estimate_mean_matches_closed_form(construction):
    config = SimConfig(samples=200_000, seed=5, construction=construction)
    est = estimate_mean(2, 1, config)
    assert est.gap_in_se(0.75) <= 5.0
    est = estimate_mean(3, 3, config)
    assert est.gap_in_se(1 / 9) <= 5.0
    est = estimate_second_moment(2, 1, config)
    assert est.gap_in_se(7 / 12) <= 5.0


def test_sample_race_single_horse_always_wins():
    divisions, winners = sample_races(1, 5, chunk_rng(13, 0))
    assert winners.tolist() == [1] * 5
    assert divisions.tolist() == [[1.0]] * 5


def test_winner_stats_match_theory():
    config = SimConfig(samples=200_000, seed=17)
    stats = estimate_winner_stats(2, config)
    assert abs(stats.conditional_mean[0] - 7 / 9) <= 5 * stats.conditional_se[0]
    assert abs(stats.conditional_mean[1] - 1 / 3) <= 5 * stats.conditional_se[1]

    stats = estimate_winner_stats(9, config)
    assert stats.winner_mean.gap_in_se(0.2) <= 5.0
    assert int(stats.win_counts.sum()) == config.samples

    # P[rank k wins] equals the expected segment length
    law = SegmentLaw(9)
    gaps = np.abs(stats.win_frequency - law.means()) / stats.win_frequency_se
    assert gaps.max() <= 5.0


def test_construction_equivalence_ks():
    for n in (2, 5):
        for k in (1, n):
            a = mc_reference.sample_kth_segment(n, k, SimConfig(samples=20_000, seed=21))
            b = mc_reference.sample_kth_segment(
                n, k, SimConfig(samples=20_000, seed=22, construction="exponential-ratio")
            )
            d = ks_statistic_two_sample(a, b)
            assert d < ks_critical_value(a.size, b.size, alpha=0.01)


def test_all_ranks_estimator_consistent_with_single_rank():
    config = SimConfig(samples=30_000, seed=8)
    xs = np.array([0.05, 0.2, 0.5])
    all_p, all_se = estimate_ccdf_all_ranks(4, xs, config)
    for k in (1, 2, 3, 4):
        p, se = estimate_ccdf(4, k, xs, config)
        assert np.array_equal(all_p[k - 1], p)
        assert np.array_equal(all_se[k - 1], se)


def test_all_ranks_hits_equal_direct_strict_count():
    config = SimConfig(samples=2_500, seed=12, chunk_size=1_000)
    draws = np.concatenate([
        sample_divisions(5, count, chunk_rng(config.seed, index), config.construction)
        for index, count in config.chunks()
    ])
    # grid points equal to drawn values check the strict '>' at ties
    xs = np.sort(np.concatenate([[0.0, 0.1, 0.1, 1.0], draws[:7, 1], draws[:3, 4]]))
    p, _ = estimate_ccdf_all_ranks(5, xs, config, workers=2)
    hits = (draws[:, :, None] > xs[None, None, :]).sum(axis=0)
    assert np.array_equal(p, hits / config.samples)


def test_estimates_close_for_all_ranks():
    config = SimConfig(samples=100_000, seed=31)
    for n in (5, 8):
        for k in range(1, n + 1):
            xs = quantile_grid(n, k, 5)
            p, se = estimate_ccdf(n, k, xs, config)
            for x, ph, s in zip(xs, p, se):
                assert abs(ph - ccdf_kth_largest(n, k, x)) <= 5 * s


def _assert_rel(actual, expected, tol):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    finite = ~np.isnan(expected)
    gap = np.abs(actual[finite] - expected[finite])
    assert np.all(gap <= tol * np.abs(expected[finite])), (gap / np.abs(expected[finite])).max()


def test_estimates_match_two_pass_reference():
    # the chunk merge lands on the exactly summed two-pass mean and ddof=1 SE;
    # the naive s2 - n*mean^2 variance put the conditional SEs 1.2e-13 off here
    config = SimConfig(samples=200_000, seed=17)
    stats = estimate_winner_stats(9, config, workers=2)
    ref = mc_reference.winner_stats(9, config)
    for name in ("win_frequency", "conditional_mean"):
        _assert_rel(getattr(stats, name), ref[name], 1e-14)
    for name in ("win_frequency_se", "conditional_se"):
        _assert_rel(getattr(stats, name), ref[name], 2e-14)
    _assert_rel(stats.winner_mean.value, ref["winner_mean"][0], 1e-14)
    _assert_rel(stats.winner_mean.se, ref["winner_mean"][1], 2e-14)

    for construction in CONSTRUCTIONS:
        config = SimConfig(samples=60_000, seed=18, construction=construction, chunk_size=25_000)
        for fn, power in ((estimate_mean, 1), (estimate_second_moment, 2)):
            for k in (1, 9):
                est = fn(9, k, config, workers=2)
                mean, se = mc_reference.moment(9, k, config, power)
                _assert_rel(est.value, mean, 1e-14)
                _assert_rel(est.se, se, 2e-14)


def test_golden_sizes_straddle_the_slab():
    assert montecarlo._SLAB == test_mc_golden.SLAB


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize("call,limit_mb", [
    pytest.param(lambda c: estimate_ccdf_all_ranks(12, np.linspace(0.0, 0.5, 20), c), 6, id="ccdf-n12"),
    pytest.param(lambda c: estimate_mean(12, 3, c), 6, id="mean-n12"),
    pytest.param(lambda c: estimate_winner_stats(9, c), 12, id="winner-n9"),
])
def test_chunk_memory_is_bounded(construction, call, limit_mb):
    # one 100k-row chunk on one worker: a whole (100k, n) float array and its
    # sorted copy alone would pass these limits
    config = SimConfig(samples=100_000, seed=4, construction=construction)
    assert traced_peak_mb(lambda: call(config)) < limit_mb

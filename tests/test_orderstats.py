import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from brokenstick import orderstats
from brokenstick.orderstats import (
    SURVIVAL_MAX_N,
    SURVIVAL_TOL,
    FieldSizeHistogram,
    SegmentLaw,
    ccdf_inverse,
    ccdf_kth_largest,
    ccdf_kth_largest_grid,
    conditional_mean_given_win,
    mean_kth_largest,
    mixture,
    mixture_ccdf,
    partial_harmonic,
    pooled_conditional_mean_given_win,
    quantile_grid,
    second_moment_kth_largest,
    winner_segment_mean,
)
from rational_ccdf import (
    ccdf_compact_exact,
    ccdf_exact,
    mean_exact,
    second_moment_exact,
)


def test_partial_harmonic_values():
    assert partial_harmonic(1, 1) == 1.0
    assert partial_harmonic(2, 1) == 1.5
    assert partial_harmonic(8, 8) == 0.125
    assert partial_harmonic(3, 1) == pytest.approx(11 / 6, abs=1e-15)


@pytest.mark.parametrize("n,k", [(0, 1), (3, 0), (3, 4), (-1, 1), (2, -2)])
def test_rank_validation(n, k):
    for fn in (partial_harmonic, mean_kth_largest, second_moment_kth_largest,
               conditional_mean_given_win):
        with pytest.raises(ValueError):
            fn(n, k)
    with pytest.raises(ValueError):
        ccdf_kth_largest(n, k, 0.3)


def test_mean_values():
    assert mean_kth_largest(1, 1) == 1.0
    assert mean_kth_largest(2, 1) == 0.75
    assert mean_kth_largest(8, 1) == pytest.approx(0.3397321428571428, abs=1e-15)
    assert mean_kth_largest(9, 1) == pytest.approx(0.3143298059964726, abs=1e-15)


def test_second_moment_values():
    assert second_moment_kth_largest(1, 1) == 1.0
    assert second_moment_kth_largest(2, 1) == pytest.approx(7 / 12, abs=1e-15)
    assert second_moment_kth_largest(2, 2) == pytest.approx(1 / 12, abs=1e-15)
    total = sum(second_moment_kth_largest(3, k) for k in range(1, 4))
    assert total == pytest.approx(0.5, abs=1e-14)


def test_conditional_mean_values():
    assert conditional_mean_given_win(1, 1) == 1.0
    assert conditional_mean_given_win(2, 1) == pytest.approx(7 / 9, abs=1e-15)
    assert conditional_mean_given_win(2, 2) == pytest.approx(1 / 3, abs=1e-15)


def test_winner_segment_mean():
    assert winner_segment_mean(1) == 1.0
    assert winner_segment_mean(3) == 0.5
    assert winner_segment_mean(9) == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("n", range(1, 16))
def test_normalization_identities(n):
    means = [mean_kth_largest(n, k) for k in range(1, n + 1)]
    seconds = [second_moment_kth_largest(n, k) for k in range(1, n + 1)]
    assert abs(sum(means) - 1.0) < 1e-12
    assert abs(sum(seconds) - 2.0 / (n + 1)) < 1e-12


@pytest.mark.parametrize("n", range(2, 16))
def test_mean_strictly_decreasing_in_rank(n):
    means = [mean_kth_largest(n, k) for k in range(1, n + 1)]
    assert all(a > b for a, b in zip(means, means[1:]))


@pytest.mark.parametrize("n", range(2, 16))
def test_size_bias_dominance(n):
    for k in range(1, n + 1):
        assert conditional_mean_given_win(n, k) > mean_kth_largest(n, k)


def test_moment_inequalities():
    for n in range(1, 12):
        for k in range(1, n + 1):
            m1 = mean_kth_largest(n, k)
            m2 = second_moment_kth_largest(n, k)
            assert m1 * m1 <= m2 <= m1


def test_ccdf_examples():
    assert ccdf_kth_largest(5, 3, 0.0) == 1.0
    assert ccdf_kth_largest(2, 1, 0.75) == pytest.approx(0.5, abs=1e-14)
    assert ccdf_kth_largest(3, 3, 0.2) == pytest.approx(0.16, abs=1e-14)
    assert ccdf_kth_largest(2, 1, 0.4) == 1.0


def test_ccdf_support_is_exact():
    for n, k in [(2, 1), (5, 2), (7, 7), (12, 4)]:
        assert ccdf_kth_largest(n, k, 1.0 / k) == 0.0
        assert ccdf_kth_largest(n, k, 1.0 / k + 0.1) == 0.0
        assert ccdf_kth_largest(n, k, 0.0) == 1.0
        assert ccdf_kth_largest(n, k, -0.5) == 1.0


def test_ccdf_clamps_out_of_range_x():
    assert ccdf_kth_largest(4, 1, 1.5) == 0.0
    assert ccdf_kth_largest(4, 1, -2.0) == 1.0
    with pytest.raises(ValueError):
        ccdf_kth_largest(4, 1, float("nan"))


@pytest.mark.parametrize("n,k", [(3, 2), (6, 1), (6, 6), (10, 4), (15, 8)])
def test_ccdf_monotone_nonincreasing(n, k):
    xs = np.linspace(-0.1, 1.0 / k + 0.1, 200)
    values = [ccdf_kth_largest(n, k, x) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def _ccdf_largest_reference(n, x):
    # independent specialization for k=1: survival of the maximum segment
    total = 0.0
    for ell in range(1, n + 1):
        base = 1.0 - ell * x
        if base <= 0.0:
            break
        total += (-1) ** (ell - 1) * math.comb(n, ell) * base ** (n - 1)
    return min(1.0, max(0.0, total))


def _ccdf_smallest_reference(n, x):
    # independent specialization for k=n: survival of the minimum segment
    base = 1.0 - n * x
    return base ** (n - 1) if base > 0.0 else 0.0


@pytest.mark.parametrize("n", range(1, 16))
def test_ccdf_largest_rank_specialization(n):
    xs = np.linspace(0.001, 1.0, 40)
    for x in xs:
        assert ccdf_kth_largest(n, 1, x) == pytest.approx(
            _ccdf_largest_reference(n, x), abs=5e-11
        )


@pytest.mark.parametrize("n", range(1, 16))
def test_ccdf_smallest_rank_specialization(n):
    xs = np.linspace(0.0005, 1.0 / n + 0.01, 40)
    for x in xs:
        assert ccdf_kth_largest(n, n, x) == pytest.approx(
            _ccdf_smallest_reference(n, x), abs=5e-9
        )


def test_ccdf_certified_by_exact_rational_evaluation():
    # two algebraically different exact-rational evaluations agree exactly,
    # and the library is within its stated tolerance of them
    rng = np.random.default_rng(99)
    for n in range(1, 13):
        for k in range(1, n + 1):
            xs = list(rng.random(6) / k) + [0.5 / k, 1.0 / (k + 0.5)]
            for x in xs:
                x = float(x)
                exact = ccdf_exact(n, k, x)
                assert exact == ccdf_compact_exact(n, k, x)
                assert ccdf_kth_largest(n, k, x) == pytest.approx(
                    float(exact), abs=SURVIVAL_TOL
                )


def test_ccdf_certified_to_stated_tolerance_up_to_n40():
    # every value within SURVIVAL_TOL of exact, from the scalar call and the
    # grid call alike
    rng = np.random.default_rng(2024)
    for n in range(1, 41):
        for k in range(1, n + 1):
            xs = np.concatenate([rng.random(2) / k, rng.random(1) / (4 * k), [1.0 / (k + 0.5)]])
            grid = ccdf_kth_largest_grid(n, k, xs)
            for x, from_grid in zip(xs.tolist(), grid.tolist()):
                exact = ccdf_compact_exact(n, k, x)
                assert abs(Fraction(from_grid) - exact) <= SURVIVAL_TOL, (n, k, x)
                assert abs(Fraction(ccdf_kth_largest(n, k, x)) - exact) <= SURVIVAL_TOL, (n, k, x)


@pytest.mark.parametrize("n,k", [(64, 32), (100, 50), (100, 100)])
def test_ccdf_certified_at_sampled_ranks_past_n40(n, k):
    rng = np.random.default_rng(n + k)
    xs = np.concatenate([rng.random(6) / k, rng.random(4) / n, [0.5 / n, 0.99 / n]])
    for x, value in zip(xs.tolist(), ccdf_kth_largest_grid(n, k, xs).tolist()):
        assert abs(Fraction(value) - ccdf_compact_exact(n, k, x)) <= SURVIVAL_TOL, x


def test_wide_first_panel_is_halved():
    # [0, 1/n] is far wider than the panels beside it: middle ranks need it halved
    assert len(orderstats._panel(64, 32, 64)) > 1
    assert len(orderstats._panel(100, 50, 100)) > 1
    assert len(orderstats._panel(100, 50, 99)) == 1


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (16, 4), (40, 10), (64, 32)])
def test_one_ulp_either_side_of_every_kink(n, k):
    # a point rounded onto the other side of a kink 1/j stays within tolerance,
    # and the scalar call gives the grid's bits there
    kinks = 1.0 / np.arange(k, n + 1)
    xs = np.concatenate([np.nextafter(kinks, 0.0), kinks, np.nextafter(kinks, 1.0)])
    grid = ccdf_kth_largest_grid(n, k, xs)
    for x, value in zip(xs.tolist(), grid.tolist()):
        assert ccdf_kth_largest(n, k, x).hex() == value.hex(), x
        assert abs(Fraction(value) - ccdf_compact_exact(n, k, x)) <= SURVIVAL_TOL, x


def test_field_size_past_certified_limit_raises():
    assert ccdf_kth_largest(SURVIVAL_MAX_N, 1, 0.5 / SURVIVAL_MAX_N) == 1.0
    for call in (lambda: ccdf_kth_largest(SURVIVAL_MAX_N + 1, 1, 0.001),
                 lambda: ccdf_inverse(SURVIVAL_MAX_N + 1, 2, 0.5),
                 lambda: mixture_ccdf(FieldSizeHistogram({5: 1, SURVIVAL_MAX_N + 1: 1}), 1, [0.1])):
        with pytest.raises(ValueError, match=f"n <= {SURVIVAL_MAX_N}"):
            call()
    # moments have no cancellation and no limit
    assert mean_kth_largest(SURVIVAL_MAX_N + 1, 1) > 0.0


def test_kernel_cache_memory_is_bounded(monkeypatch):
    # Every panel of every (n, k) up to n = 40 is built once untraced; under
    # tracemalloc the cache is then offered fresh copies of them all.
    built = {(n, k, m): orderstats._build_panel(n, k, m)
             for n in range(1, 41) for k in range(1, n + 1) for m in range(k, n + 1)}
    monkeypatch.setattr(orderstats, "_build_panel", lambda n, k, m: built[n, k, m].copy())
    orderstats._panel.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n, k, m in built:
            orderstats._panel(n, k, m)
        footprint = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        orderstats._panel.cache_clear()
    assert footprint < 3_000_000


@pytest.mark.parametrize(
    "n,k,x",
    [(1, 1, 0.5), (7, 3, 0.05), (12, 6, 0.06), (20, 1, 0.03), (20, 8, 0.02),
     (40, 5, 0.03), (40, 40, 0.01), (9, 2, -1.0), (9, 2, 0.5), (64, 32, 0.01)],
)
def test_scalar_is_a_grid_of_length_one(n, k, x):
    grid = ccdf_kth_largest_grid(n, k, [x])
    assert grid.shape == (1,)
    assert ccdf_kth_largest(n, k, x).hex() == float(grid[0]).hex()
    # and a point's value does not depend on the grid around it
    wide = ccdf_kth_largest_grid(n, k, np.insert(np.linspace(0.0, 1.0 / k, 37), 5, x))
    assert float(wide[5]).hex() == float(grid[0]).hex()


def test_grid_rejects_nan_and_clamps_like_scalar():
    for call in (lambda: ccdf_kth_largest(6, 2, float("nan")),
                 lambda: ccdf_kth_largest_grid(6, 2, [0.1, float("nan")])):
        with pytest.raises(ValueError, match="NaN"):
            call()
    xs = [-np.inf, -1.0, -0.0, 0.0, 0.5, 0.75, 1.0, 3.0, np.inf]
    expected = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # k x >= 1 from x = 0.5
    assert ccdf_kth_largest_grid(6, 2, xs).tolist() == expected
    assert [ccdf_kth_largest(6, 2, x) for x in xs] == expected
    assert ccdf_kth_largest_grid(6, 2, [[0.0, 0.1], [0.2, 0.9]]).shape == (2, 2)


@pytest.mark.parametrize("n", range(1, 65))
def test_survival_summed_over_ranks_counts_long_segments(n):
    # sum_k P[z_(k) > x] = E[#segments longer than x] = n (1 - x)^(n-1)
    for x in (x for x in (1e-4, 0.01, 0.5 / n, 0.99 / n, 1.5 / n, 0.3, 0.8, 0.99) if x < 1):
        total = math.fsum(ccdf_kth_largest(n, k, x) for k in range(1, n + 1))
        exact = n * (1 - Fraction(x)) ** (n - 1)
        assert abs(Fraction(total) - exact) <= n * SURVIVAL_TOL + 1e-14, x


def test_ccdf_extended_precision_path():
    # large n, where the inclusion-exclusion sum cancels far past double
    # precision: the panel polynomials never form it
    rng = np.random.default_rng(7)
    for n in (25, 40, 64):
        for k in (1, 2, n // 2, n - 1, n):
            for x in rng.random(4) / k:
                x = float(x)
                exact = float(ccdf_compact_exact(n, k, x))
                assert ccdf_kth_largest(n, k, x) == pytest.approx(exact, abs=1e-13)


def test_moments_match_exact_rationals():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert mean_kth_largest(n, k) == pytest.approx(
                float(mean_exact(n, k)), abs=1e-14
            )
            assert second_moment_kth_largest(n, k) == pytest.approx(
                float(second_moment_exact(n, k)), abs=1e-14
            )


def test_ccdf_inverse_round_trip():
    for n, k in [(2, 1), (5, 2), (9, 9), (12, 3)]:
        for p in (0.9, 0.5, 0.1, 0.025):
            x = ccdf_inverse(n, k, p)
            assert ccdf_kth_largest(n, k, x) == pytest.approx(p, abs=1e-9)
    assert ccdf_inverse(5, 2, 1.0) == 0.0
    assert ccdf_inverse(5, 2, 0.0) == 0.5
    with pytest.raises(ValueError):
        ccdf_inverse(5, 2, 1.5)


@pytest.mark.parametrize("n", range(21, 41))
def test_inverse_round_trip_past_n20(n):
    # x is the smallest float with survival <= p: the float below it is above p
    rng = np.random.default_rng(n)
    for k in sorted({1, 2, n // 2, n - 1, n}):
        for p in rng.uniform(0.01, 0.99, 2):
            x = ccdf_inverse(n, k, p)
            assert ccdf_kth_largest(n, k, x) <= p < ccdf_kth_largest(n, k, np.nextafter(x, 0.0))
            assert ccdf_kth_largest(n, k, x) == pytest.approx(p, abs=3 * SURVIVAL_TOL)
        xs = quantile_grid(n, k, 5)
        levels = ((np.arange(5) + 0.5) / 5)[::-1]
        assert np.all(ccdf_kth_largest_grid(n, k, xs) <= levels)
        assert np.all(ccdf_kth_largest_grid(n, k, np.nextafter(xs, 0.0)) > levels)
        assert np.allclose(ccdf_kth_largest_grid(n, k, xs), levels, rtol=0, atol=3 * SURVIVAL_TOL)


def test_quantile_grid_sorted_and_interior():
    xs = quantile_grid(7, 2, 20)
    assert len(xs) == 20
    assert np.all(np.diff(xs) > 0)
    assert xs[0] > 0.0 and xs[-1] < 0.5


def test_segment_law_matches_free_functions():
    law = SegmentLaw(9)
    for k in range(1, 10):
        assert law.mean(k) == pytest.approx(mean_kth_largest(9, k), abs=1e-15)
        assert law.second_moment(k) == pytest.approx(
            second_moment_kth_largest(9, k), abs=1e-15
        )
        assert law.conditional_mean_given_win(k) == pytest.approx(
            conditional_mean_given_win(9, k), abs=1e-14
        )
    assert law.ccdf(3, 0.1) == ccdf_kth_largest(9, 3, 0.1)
    assert law.winner_segment_mean() == 0.2
    with pytest.raises(ValueError):
        law.mean(10)


class TestFieldSizeHistogram:
    def test_weights_sum_to_one(self):
        hist = FieldSizeHistogram({5: 3, 8: 1, 12: 6})
        weights = hist.weights()
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        assert hist.total() == 10
        assert hist.support() == (5, 8, 12)

    def test_from_sizes(self):
        hist = FieldSizeHistogram.from_sizes([5, 5, 9])
        assert hist.counts == {5: 2, 9: 1}
        assert hist.mean_field_size() == pytest.approx(19 / 3)

    def test_zero_counts_dropped(self):
        hist = FieldSizeHistogram({5: 2, 7: 0})
        assert hist.support() == (5,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FieldSizeHistogram({0: 1})
        with pytest.raises(ValueError):
            FieldSizeHistogram({5: -1})
        with pytest.raises(ValueError):
            FieldSizeHistogram({}).weights()


class TestMixture:
    def test_degenerate(self):
        hist = FieldSizeHistogram({3: 1})
        assert mixture(hist, "winner_segment_mean") == 0.5

    def test_hand_evaluated_mean(self):
        hist = FieldSizeHistogram({2: 1, 3: 1})
        expected = (0.75 + (11 / 6) / 3) / 2  # = 49/72
        assert mixture(hist, "mean", k=1) == pytest.approx(expected, abs=1e-12)
        assert mixture(hist, "mean", k=1) == pytest.approx(0.680556, abs=5e-7)

    def test_longshot_selector_uses_rank_n(self):
        hist = FieldSizeHistogram({2: 1, 3: 1})
        expected = (mean_kth_largest(2, 2) + mean_kth_largest(3, 3)) / 2
        assert mixture(hist, "mean", k="longshot") == pytest.approx(expected, abs=1e-15)

    def test_fixed_rank_exceeding_support_names_offender(self):
        hist = FieldSizeHistogram({5: 1, 9: 1})
        with pytest.raises(ValueError, match="n=5"):
            mixture(hist, "mean", k=7)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            mixture(FieldSizeHistogram({}), "mean", k=1)

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            mixture(FieldSizeHistogram({3: 1}), "median", k=1)

    def test_ccdf_mixture(self):
        hist = FieldSizeHistogram({2: 1, 4: 3})
        x = 0.3
        expected = 0.25 * ccdf_kth_largest(2, 1, x) + 0.75 * ccdf_kth_largest(4, 1, x)
        assert mixture(hist, "ccdf", k=1, x=x) == pytest.approx(expected, abs=1e-14)
        curve = mixture_ccdf(hist, 1, [0.0, x, 1.0])
        assert curve[0] == 1.0
        assert curve[1] == pytest.approx(expected, abs=1e-14)
        assert curve[2] == 0.0
        with pytest.raises(ValueError):
            mixture(hist, "ccdf", k=1)

    def test_pooled_conditional_mean(self):
        # degenerate mixture: pooled and per-n conditional means coincide
        hist = FieldSizeHistogram({6: 4})
        assert pooled_conditional_mean_given_win(hist, 2) == pytest.approx(
            conditional_mean_given_win(6, 2), abs=1e-15
        )
        # mixed field sizes: pooled is the size-biased ratio of mixtures
        hist = FieldSizeHistogram({2: 1, 3: 1})
        expected = mixture(hist, "second_moment", k=1) / mixture(hist, "mean", k=1)
        assert pooled_conditional_mean_given_win(hist, 1) == pytest.approx(
            expected, abs=1e-15
        )

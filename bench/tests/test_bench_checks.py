"""Output checks: correct values pass, a corrupted theory value fails."""

import contextlib
import io
import itertools
import math
from fractions import Fraction

from bench import checks, workloads
from brokenstick import cli, orderstats


def test_exact_ccdf_matches_known_values():
    # n = 2: P[z_(1) > x] = 1 for x < 1/2, and P[z_(2) > x] = 1 - 2x.
    assert checks.exact_ccdf(2, 1, 0.25) == 1
    assert checks.exact_ccdf(2, 2, 0.125) == Fraction(3, 4)
    assert checks.exact_mean(3, 1) == Fraction(11, 18)
    assert checks.exact_second_moment(2, 1) == Fraction(7, 12)


def _queries(count):
    return list(itertools.islice(workloads.query_stream(5), count))


def _values(queries):
    functions = workloads.query_functions()
    return [float(functions[kind](*args)) for kind, args in queries]


def test_seed_code_meets_the_query_tolerance():
    queries = _queries(300)
    res = workloads.Result()
    worst = workloads.check_queries(res, queries, _values(queries))
    assert res.failed_ops == {}
    assert set(worst) == {kind for kind, _ in workloads.QUERY_MIX}


def test_corrupted_theory_value_fails_the_check():
    queries = _queries(300)
    values = _values(queries)
    index = next(i for i, (kind, _) in enumerate(queries) if kind == "ccdf_float")
    values[index] += 10 * checks.THEORY_TOL
    res = workloads.Result(attempted=len(queries))
    workloads.check_queries(res, queries, values)
    assert list(res.failed_ops) == [f"q{index}"]
    assert len(res.failed_ops) / res.attempted > 0


def test_corrupted_theory_curve_fails_the_market_check(tmp_path):
    races, out = tmp_path / "races.csv", tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--races", "2000", "--n-min", "5", "--n-max", "8",
                         "--seed", "3", "--output", str(races)]) == 0
        assert cli.main(["analyze", "--input", str(races), "--output-dir", str(out)]) == 0
    ctx = workloads.Context(3, 1.0, tmp_path, tmp_path, {})

    res = workloads.Result()
    assert workloads.check_market_outputs(ctx, res, tmp_path, "") < checks.THEORY_TOL
    assert res.failed_ops == {}

    curve = out / "eccdf_rank2_theory.csv"
    lines = curve.read_text().splitlines()
    lines[1:] = [f"{x},{float(s) + 1e-3:.10g}" for x, s in (line.split(",") for line in lines[1:])]
    curve.write_text("\n".join(lines) + "\n")
    res = workloads.Result()
    assert workloads.check_market_outputs(ctx, res, tmp_path, "") > checks.THEORY_TOL
    assert "analyze" in res.failed_ops


def test_curve_sup_distance_sees_both_sides_of_a_jump():
    # Empirical survival drops 1 -> 0 at x = 1; a theory value of 0.5 there is
    # 0.5 away from both one-sided limits.
    assert checks.curve_sup_distance([1.0], [0.0], [1.0], [0.5]) == 0.5
    assert math.isclose(checks.ks_critical_value(10_000), 1.628 * math.sqrt(2e-4), rel_tol=1e-3)


def test_mixture_exact_agrees_with_library_mean():
    counts = {5: 2, 7: 1}
    hist = orderstats.FieldSizeHistogram(counts)
    exact = checks.exact_mixture(counts, "mean", "longshot")
    assert abs(orderstats.mixture(hist, "mean", k="longshot") - float(exact)) < 1e-15


def test_nan_query_value_fails_unless_the_query_raised():
    queries = _queries(100)
    values = _values(queries)
    index = next(i for i, (kind, _) in enumerate(queries) if kind == "mixture")
    values[index] = math.nan
    res = workloads.Result(attempted=len(queries))
    worst = workloads.check_queries(res, queries, values)
    assert list(res.failed_ops) == [f"q{index}"]
    assert worst["mixture"] == math.inf

    res = workloads.Result(attempted=len(queries))
    workloads.check_queries(res, queries, values, raised=frozenset({index}))
    assert res.failed_ops == {}


def _cell(value, se=0.01):
    return {"value": value, "se": se}


def test_nan_report_cell_fails():
    stats = {"mean_implied_odds": _cell(0.5), "win_frequency": _cell(0.5),
             "implied_odds_given_win": _cell(0.6), "segment_mean_theory": _cell(0.5, None),
             "segment_mean_given_win_theory": _cell(0.6, None)}
    payload = {"buckets": [{"name": "all", "ranks": [{"rank": "1", "statistics": stats}],
                            "winner": {"winner_odds_mean": _cell(0.4),
                                       "winner_segment_mean_theory": _cell(0.4, None)}}]}
    assert checks.report_cell_failures(payload) == ([], 0.0)
    stats["win_frequency"] = _cell(math.nan)
    failures, worst = checks.report_cell_failures(payload)
    assert failures == ["all/1/win_frequency: gap inf SE > 5.0"] and worst == math.inf


def test_non_finite_inputs_are_never_within_bounds():
    assert checks.gap_in_se(math.nan, 0.5, 0.01) == math.inf
    assert checks.gap_in_se(0.6, 0.5, math.nan) == math.inf
    assert checks.curve_sup_distance([1.0, 2.0], [0.5, math.nan], [1.0, 2.0], [0.5, 0.0]) == math.inf


def test_missing_report_fails_the_pass_instead_of_ending_the_run(tmp_path):
    (tmp_path / "out").mkdir()
    ctx = workloads.Context(1, 1.0, tmp_path, tmp_path, {})
    res = workloads.Result(attempted=1)
    assert res.check("pass0/analyze", lambda: workloads.check_market_outputs(ctx, res, tmp_path, "pass0/")) is None
    assert list(res.failed_ops) == ["pass0/analyze"]

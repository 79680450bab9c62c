"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria use fixed seeds, so outcomes are reproducible; sampling budgets
follow the stated criteria (10^6 draws where required).
"""

import numpy as np
import pytest
from scipy.stats import kstwo

import mc_reference
from ks_reference import ks_critical_value, ks_statistic_two_sample
from brokenstick.analysis import build_report
from brokenstick.cli import main as cli_main
from brokenstick.montecarlo import (
    SimConfig,
    estimate_ccdf_all_ranks,
    estimate_mean,
    estimate_winner_stats,
)
from brokenstick.orderstats import (
    FieldSizeHistogram,
    SegmentLaw,
    mean_kth_largest,
    mixture,
    mixture_ccdf,
    quantile_grid,
    second_moment_kth_largest,
)
from brokenstick.quadrature import mean_via_quadrature, second_moment_via_quadrature
from brokenstick.racedata import parse_races, races_to_csv_text, rank_races
from brokenstick.stats import ks_distance_to_survival
from brokenstick.synth import SyntheticDatasetConfig, generate_synthetic_dataset

PIPELINE_RACES = 12_000
PIPELINE_FIELD_SIZES = FieldSizeHistogram({n: 1 for n in range(5, 17)})
PIPELINE_SEED = 2024


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline_report():
    config = SyntheticDatasetConfig(
        race_count=PIPELINE_RACES,
        field_sizes=PIPELINE_FIELD_SIZES,
        seed=PIPELINE_SEED,
    )
    records = generate_synthetic_dataset(config)
    # exercise the full CSV round trip, not just in-memory objects
    parsed, rejections = parse_races(races_to_csv_text(records).encode())
    assert rejections == [] and len(parsed) == PIPELINE_RACES
    races = rank_races(parsed)
    return races, build_report(races)


def test_criterion_1_closed_form_crosscheck():
    """Integrating the survival curve reproduces both harmonic moments."""
    worst = 0.0
    for n in range(1, 16):
        for k in range(1, n + 1):
            gap_mean = abs(mean_via_quadrature(n, k) - mean_kth_largest(n, k))
            gap_m2 = abs(
                second_moment_via_quadrature(n, k) - second_moment_kth_largest(n, k)
            )
            worst = max(worst, gap_mean, gap_m2)
    _verdict(
        "criterion 1 (quadrature cross-check, n=1..15)",
        worst <= 1e-8,
        f"worst moment gap {worst:.3e} (tolerance 1e-8)",
    )


def test_criterion_2_identity_suite():
    """Means sum to 1 and second moments to 2/(n+1), both within 1e-12."""
    worst = 0.0
    for n in range(1, 16):
        law = SegmentLaw(n)
        worst = max(worst, abs(law.means().sum() - 1.0))
        worst = max(worst, abs(law.second_moments().sum() - 2.0 / (n + 1)))
    _verdict(
        "criterion 2 (normalization and winner identities, n=1..15)",
        worst <= 1e-12,
        f"worst identity gap {worst:.3e} (tolerance 1e-12)",
    )


def test_criterion_3_mc_oracle_agreement():
    """Both samplers match the survival law at 5 SE; constructions agree by KS."""
    worst = 0.0
    worst_at = ""
    for construction, seed in (("uniform-cuts", 71), ("exponential-ratio", 72)):
        for n in range(2, 13):
            grids = {k: quantile_grid(n, k, 20) for k in range(1, n + 1)}
            union = np.unique(np.concatenate(list(grids.values())))
            config = SimConfig(
                samples=1_000_000, seed=seed + n, construction=construction,
                chunk_size=20_000,
            )
            estimates, ses = estimate_ccdf_all_ranks(n, union, config, workers=4)
            for k, xs in grids.items():
                law = SegmentLaw(n)
                idx = np.searchsorted(union, xs)
                for x, p_hat, se in zip(xs, estimates[k - 1, idx], ses[k - 1, idx]):
                    gap = abs(p_hat - law.ccdf(k, x)) / se
                    if gap > worst:
                        worst = gap
                        worst_at = f"{construction} n={n} k={k} x={x:.4f}"
    ccdf_ok = worst <= 5.0

    ks_worst = 0.0
    ks_ok = True
    for n in (2, 5, 10):
        for k in (1, n):
            a = mc_reference.sample_kth_segment(
                n, k, SimConfig(samples=100_000, seed=81, construction="uniform-cuts")
            )
            b = mc_reference.sample_kth_segment(
                n, k,
                SimConfig(samples=100_000, seed=82, construction="exponential-ratio"),
            )
            d = ks_statistic_two_sample(a, b)
            crit = ks_critical_value(a.size, b.size, alpha=0.01)
            ks_worst = max(ks_worst, d / crit)
            ks_ok &= d < crit
    _verdict(
        "criterion 3 (MC oracle agreement, n=2..12, both constructions)",
        ccdf_ok and ks_ok,
        f"worst CCDF gap {worst:.2f} SE at {worst_at} (limit 5); "
        f"worst KS ratio {ks_worst:.2f} of the 1% critical value",
    )


def test_criterion_4_size_biased_conditional():
    """Winner-conditioned MC moments hit 7/9 (n=2) and 2/(n+1) (n=9) at 3 SE."""
    stats2 = estimate_winner_stats(2, SimConfig(samples=1_000_000, seed=101))
    gap2 = abs(stats2.conditional_mean[0] - 7 / 9) / stats2.conditional_se[0]

    stats9 = estimate_winner_stats(9, SimConfig(samples=1_000_000, seed=102))
    gap9 = stats9.winner_mean.gap_in_se(0.2)
    _verdict(
        "criterion 4 (size-biased conditional means)",
        gap2 <= 3.0 and gap9 <= 3.0,
        f"E[z_(1)|win] at n=2 off by {gap2:.2f} SE; "
        f"winner mean at n=9 off by {gap9:.2f} SE (limit 3)",
    )


def test_criterion_5_end_to_end_pipeline(pipeline_report):
    """Every table cell of a clean synthetic market matches theory at 5 SE."""
    _, report = pipeline_report
    worst = 0.0
    worst_at = ""
    checked = 0
    for bucket_report in report.buckets:
        name = bucket_report.bucket.name
        for row in bucket_report.rows:
            z = row.segment_mean.value
            z_win = row.segment_mean_given_win.value
            cells = (
                (row.mean_implied_odds, z, "Q"),
                (row.win_frequency, z, "P"),
                (row.implied_odds_given_win, z_win, "Q|win"),
            )
            for cell, target, tag in cells:
                assert cell.value is not None, f"{name}/{row.label}/{tag} absent"
                gap = abs(cell.value - target) / cell.se if cell.se else 0.0
                checked += 1
                if gap > worst:
                    worst, worst_at = gap, f"{name}/{row.label}/{tag}"
        winner = bucket_report.winner_odds
        gap = abs(winner.value - bucket_report.winner_segment.value) / winner.se
        checked += 1
        if gap > worst:
            worst, worst_at = gap, f"{name}/winner"
    _verdict(
        "criterion 5 (end-to-end pipeline, 12000 races, n=5..16)",
        worst <= 5.0,
        f"{checked} cells checked; worst gap {worst:.2f} SE at {worst_at} (limit 5)",
    )


def test_criterion_6_eccdf_sup_distance(pipeline_report):
    """Pooled survival curves stay below the one-sample KS 1% critical value."""
    races, _ = pipeline_report
    hist = FieldSizeHistogram.from_sizes(races.field_size)
    worst_ratio = 0.0
    worst_at = ""
    for selector in (1, 2, 3, 4, "longshot"):
        rank = races.field_size if selector == "longshot" else selector
        values = races.implied_odds[races.offsets[:-1] + rank - 1]  # every n >= 5
        distance = ks_distance_to_survival(
            values, lambda xs: mixture_ccdf(hist, selector, xs)
        )
        crit = kstwo.ppf(0.99, values.size)
        ratio = distance / crit
        if ratio > worst_ratio:
            worst_ratio, worst_at = ratio, str(selector)
    _verdict(
        "criterion 6 (survival-curve sup distance, ranks 1-4 and longshot)",
        worst_ratio < 1.0,
        f"worst sup distance {worst_ratio:.2f} of the 1% critical value (rank {worst_at})",
    )


def test_criterion_7_winner_average_bracket():
    """Mixtures of 2/(n+1) over mean-8.95 histograms bracket the published 0.2107."""
    from brokenstick.reference import reference_field_size_histogram

    jensen_floor = 2.0 / (8.95 + 1.0)
    results = []
    broad = reference_field_size_histogram()
    two_point = FieldSizeHistogram({8: 1, 9: 19})
    for label, hist in (("reference", broad), ("two-point", two_point)):
        assert abs(hist.mean_field_size() - 8.95) < 1e-12, label
        value = mixture(hist, "winner_segment_mean")
        results.append((label, value))
    ok = all(0.20 <= v <= 0.22 and v > jensen_floor for _, v in results)
    detail = ", ".join(f"{label}: {v:.4f}" for label, v in results)
    _verdict(
        "criterion 7 (winner-average bracket at mean field size 8.95)",
        ok,
        f"{detail}; all within [0.20, 0.22] and above {jensen_floor:.4f}",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    """Seeded synth and simulate are byte-identical across runs and workers."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = cli_main(
            ["synth", "--races", "300", "--n-min", "5", "--n-max", "12",
             "--seed", "11", "--output", str(path)]
        )
        assert code == 0
    synth_ok = paths[0].read_bytes() == paths[1].read_bytes()

    capsys.readouterr()  # drop the synth summaries before capturing simulate
    outputs = []
    for _ in range(2):
        code = cli_main(
            ["simulate", "--n", "6", "--k", "2", "--stat", "ccdf", "--grid", "10",
             "--samples", "200000", "--seed", "5", "--workers", "1"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    simulate_ok = outputs[0] == outputs[1]

    config = SimConfig(samples=200_000, seed=5, chunk_size=30_000)
    serial = estimate_mean(6, 2, config, workers=1)
    threaded = estimate_mean(6, 2, config, workers=8)
    workers_ok = serial == threaded

    with capsys.disabled():
        _verdict(
            "criterion 8 (determinism of seeded synth/simulate)",
            synth_ok and simulate_ok and workers_ok,
            f"synth byte-identical: {synth_ok}; simulate output identical: "
            f"{simulate_ok}; thread-count invariant: {workers_ok}",
        )

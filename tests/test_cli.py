import json

import pytest

from brokenstick import cli, montecarlo
from brokenstick.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheory:
    def test_winner_mean(self, capsys):
        code, out, _ = run(capsys, "theory", "--n", "9", "--stat", "winner-mean")
        assert code == EXIT_OK
        assert out.strip() == "0.2"

    def test_cond_mean(self, capsys):
        code, out, _ = run(capsys, "theory", "--n", "2", "--k", "1", "--stat", "cond-mean")
        assert code == EXIT_OK
        assert out.strip() == "0.777778"

    def test_mean(self, capsys):
        code, out, _ = run(capsys, "theory", "--n", "8", "--k", "1", "--stat", "mean")
        assert code == EXIT_OK
        assert out.strip() == "0.339732"

    def test_all_ranks_table(self, capsys):
        code, out, _ = run(capsys, "theory", "--n", "3", "--stat", "mean")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4  # header + 3 ranks

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "theory", "--n", "2", "--k", "1", "--stat", "mean", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload[0]["value"] == 0.75

    def test_ccdf_grid(self, capsys):
        code, out, _ = run(
            capsys, "theory", "--n", "5", "--k", "2", "--stat", "ccdf",
            "--grid", "5", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,statistic,x,value"
        assert len(lines) == 6

    def test_histogram_mixture(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        hist.write_text("n,count\n3,1\n", encoding="utf-8")
        code, out, _ = run(capsys, "theory", "--hist", str(hist), "--stat", "winner-mean")
        assert code == EXIT_OK
        assert out.strip() == "0.5"

    def test_repeated_x_adds_points(self, capsys):
        common = ("theory", "--n", "4", "--k", "2", "--stat", "ccdf", "--format", "csv")
        repeated = run(capsys, *common, "--x", "0.1", "--x", "0.3,0.2")
        assert repeated[0] == EXIT_OK
        assert len(repeated[1].strip().splitlines()) == 4
        assert repeated == run(capsys, *common, "--x", "0.1,0.3,0.2")

    def test_invalid_rank(self, capsys):
        code, _, err = run(capsys, "theory", "--n", "3", "--k", "9", "--stat", "mean")
        assert code == EXIT_USAGE
        assert err.startswith("error: rank k=9 exceeds field size n=3")

    def test_single_field_size_ccdf_takes_longshot(self, capsys):
        common = ("theory", "--n", "5", "--stat", "ccdf", "--format", "csv")
        for points in ((), ("--x", "0.3,0.01,0.2")):
            code, longshot, _ = run(capsys, *common, *points, "--k", "longshot")
            assert code == EXIT_OK
            rank_n = run(capsys, *common, *points, "--k", "5")[1]
            assert longshot == rank_n.replace("\n5,5,", "\n5,longshot,")

    def test_histogram_ccdf_rows_sorted_by_x(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        hist.write_text("n,count\n5,2\n8,1\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "theory", "--hist", str(hist), "--k", "2", "--stat", "ccdf",
            "--x", "0.3,0.01,0.2", "--format", "csv",
        )
        assert code == EXIT_OK
        assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["0.01", "0.2", "0.3"]

    def test_histogram_values_are_the_report_theory(self, capsys, tmp_path):
        # theory over bucket all's field sizes prints report.json's theory cells;
        # cond-mean is the pooled ratio, not the average of per-n values
        races, outdir, hist = tmp_path / "races.csv", tmp_path / "out", tmp_path / "hist.csv"
        run(capsys, "synth", "--races", "3000", "--n-min", "5", "--n-max", "12",
            "--seed", "7", "--output", str(races))
        assert run(capsys, "analyze", "--input", str(races), "--output-dir", str(outdir))[0] == EXIT_OK
        bucket = json.loads((outdir / "report.json").read_text())["buckets"][0]
        assert bucket["name"] == "all"
        hist.write_text("".join(f"{n},{c}\n" for n, c in bucket["field_size_counts"].items()))
        theory = {}
        for row in bucket["ranks"]:
            for stat, column in (("mean", "segment_mean_theory"),
                                 ("cond-mean", "segment_mean_given_win_theory")):
                code, out, _ = run(capsys, "theory", "--hist", str(hist), "--k", row["rank"],
                                   "--stat", stat)
                assert code == EXIT_OK
                assert float(out) == row["statistics"][column]["value"]
                theory[row["rank"], stat] = out.strip()
        code, out, _ = run(capsys, "theory", "--hist", str(hist), "--stat", "winner-mean")
        assert float(out) == bucket["winner"]["winner_segment_mean_theory"]["value"]
        assert theory["longshot", "cond-mean"] == "0.0410386"

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "theory", "--stat", "mean")
        assert code == EXIT_USAGE


class TestSimulate:
    def test_mean_within_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "3", "--k", "3", "--stat", "mean",
            "--samples", "50000", "--seed", "12",
        )
        assert code == EXIT_OK
        assert "gap_se" in out

    def test_zero_samples_usage_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--n", "2", "--k", "1", "--stat", "mean", "--samples", "0"
        )
        assert code == EXIT_USAGE
        assert "samples" in err

    def test_impossible_tolerance_breach(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--n", "5", "--k", "2", "--stat", "mean",
            "--samples", "20000", "--seed", "3", "--max-se", "1e-9",
        )
        assert code == EXIT_TOLERANCE
        assert "tolerance breach" in err

    def test_ccdf_gap_at_sample_se_zero_uses_binomial_se(self, capsys, monkeypatch):
        # all 3000 draws survive x = 0.01 (exact 0.9999988), so the sample SE is
        # 0 and the 1.2e-6 gap is measured in the binomial SE at the exact value
        argv = ("simulate", "--n", "5", "--k", "2", "--stat", "ccdf", "--x", "0.01",
                "--samples", "3000", "--seed", "5", "--format", "csv")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        row = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
        assert (row["estimate"], row["se"]) == ("1", "0")
        assert float(row["gap_se"]) < 0.1
        # a wrong exact value still breaches: 0.99 is 5.5 binomial SEs from 1
        _, estimate = cli._STATISTICS["ccdf"]
        monkeypatch.setitem(cli._STATISTICS, "ccdf", (lambda hist, k, xs: [0.99] * len(xs), estimate))
        code, _, err = run(capsys, *argv)
        assert code == EXIT_TOLERANCE
        assert "tolerance breach" in err

    def test_ccdf_grid(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "4", "--k", "2", "--stat", "ccdf",
            "--samples", "20000", "--grid", "5",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 6

    def test_repeated_x_adds_points(self, capsys):
        common = ("simulate", "--n", "3", "--k", "1", "--stat", "ccdf", "--samples", "20000")
        repeated = run(capsys, *common, "--x", "0", "--x", "1", "--x", "0.5")
        assert repeated[0] == EXIT_OK
        assert len(repeated[1].strip().splitlines()) == 4  # header and three rows
        assert repeated == run(capsys, *common, "--x", "0,1,0.5")

    def test_exponential_construction(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "2", "--k", "1", "--stat", "mean",
            "--construction", "exponential-ratio", "--samples", "50000", "--seed", "2",
            "--format", "csv",
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        estimate = float(row.split(",")[header.split(",").index("estimate")])
        assert abs(estimate - 0.75) < 0.01

    def test_longshot_is_rank_n(self, capsys):
        common = ("--stat", "mean", "--seed", "3", "--samples", "20000")
        longshot = run(capsys, "simulate", "--n", "4", "--k", "longshot", *common)
        rank_n = run(capsys, "simulate", "--n", "4", "--k", "4", *common)
        assert longshot[0] == EXIT_OK
        assert longshot == rank_n

    @pytest.mark.parametrize("stat", ["mean", "second-moment", "cond-mean", "ccdf"])
    @pytest.mark.parametrize("points", [(), ("--x", "0.1")], ids=["grid", "x"])
    def test_bad_rank_fails_before_sampling(self, capsys, monkeypatch, stat, points):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the rank was checked")

        monkeypatch.setattr(montecarlo, "sample_divisions", sample)
        code, out, err = run(capsys, "simulate", "--n", "3", "--k", "5", "--stat", stat, *points)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: rank k=5 ") and "field size n=3" in err

    def test_winner_mean_takes_no_rank(self, capsys):
        common = ("simulate", "--n", "3", "--stat", "winner-mean", "--samples", "2000")
        code, out, _ = run(capsys, *common, "--k", "5")
        assert code == EXIT_OK
        assert out == run(capsys, *common)[1]

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BROKENSTICK_SAMPLES", "5000")
        monkeypatch.setenv("BROKENSTICK_SEED", "21")
        code1, out1, _ = run(capsys, "simulate", "--n", "2", "--k", "1", "--stat", "mean")
        code2, out2, _ = run(capsys, "simulate", "--n", "2", "--k", "1", "--stat", "mean")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2


class TestSynth:
    def test_row_count_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, out, _ = run(
                capsys, "synth", "--races", "100", "--n-fixed", "9",
                "--seed", "7", "--output", str(path),
            )
            assert code == EXIT_OK
            assert "wrote 100 races (900 rows)" in out
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(out_a.read_text().splitlines()) == 901

    def test_single_horse_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--races", "5", "--n-fixed", "1",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE
        assert "n >= 2" in err

    def test_field_law_flags_are_exclusive(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--races", "5", "--n-fixed", "5", "--n-min", "5",
            "--n-max", "8", "--output", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE


class TestAnalyze:
    @pytest.fixture()
    def race_csv(self, tmp_path, capsys):
        path = tmp_path / "races.csv"
        code, _, _ = run(
            capsys, "synth", "--races", "300", "--n-min", "5", "--n-max", "12",
            "--seed", "3", "--output", str(path),
        )
        assert code == EXIT_OK
        return path

    def test_full_run(self, capsys, tmp_path, race_csv):
        outdir = tmp_path / "out"
        code, out, _ = run(
            capsys, "analyze", "--input", str(race_csv), "--output-dir", str(outdir)
        )
        assert code == EXIT_OK
        assert (outdir / "report.csv").exists()
        assert (outdir / "report.json").exists()
        assert (outdir / "rejections.csv").exists()
        for label in ("1", "2", "3", "4", "longshot"):
            assert (outdir / f"eccdf_rank{label}_empirical.csv").exists()
            assert (outdir / f"eccdf_rank{label}_theory.csv").exists()
        assert "accepted 300 races" in out

    def test_malformed_row_logged_not_fatal(self, capsys, tmp_path, race_csv):
        crippled = tmp_path / "crippled.csv"
        lines = race_csv.read_text().splitlines()
        lines.insert(5, "rbroken,h01,not_a_number,0")
        crippled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outdir = tmp_path / "out2"
        code, out, _ = run(
            capsys, "analyze", "--input", str(crippled), "--output-dir", str(outdir)
        )
        assert code == EXIT_OK
        rejects = (outdir / "rejections.csv").read_text().splitlines()
        assert len(rejects) == 2  # header + one rejection
        assert "malformed row" in rejects[1]

    def test_min_field_size_drops_races(self, capsys, tmp_path):
        path = tmp_path / "races.csv"
        run(capsys, "synth", "--races", "50", "--n-min", "4", "--n-max", "5",
            "--seed", "9", "--output", str(path))
        outdir = tmp_path / "out3"
        code, out, _ = run(
            capsys, "analyze", "--input", str(path), "--output-dir", str(outdir),
            "--min-field-size", "5",
        )
        assert code == EXIT_OK
        payload = json.loads((outdir / "report.json").read_text())
        sizes = payload["buckets"][0]["field_size_counts"]
        assert "4" not in sizes

    def test_fixed_theory_field_size(self, capsys, tmp_path, race_csv):
        outdir = tmp_path / "out_fixed"
        code, _, _ = run(
            capsys, "analyze", "--input", str(race_csv), "--output-dir", str(outdir),
            "--n-fixed", "9",
        )
        assert code == EXIT_OK
        payload = json.loads((outdir / "report.json").read_text())
        from brokenstick.orderstats import mean_kth_largest

        for bucket in payload["buckets"]:
            row = bucket["ranks"][0]
            cell = row["statistics"]["segment_mean_theory"]
            assert cell["value"] == pytest.approx(mean_kth_largest(9, 1), abs=1e-6)

    def test_race_past_survival_limit_rejected(self, capsys, tmp_path):
        rows = ["race_id,horse_id,decimal_odds,won"]
        for race in range(30):
            rows += [f"r{race:02d},h{i},{odds},{int(i == race % 6)}"
                     for i, odds in enumerate((2.5, 4, 6, 10, 15, 30))]
        rows += [f"big,h{i:03d},230,{int(i == 0)}" for i in range(230)]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        outdir = tmp_path / "out_big"
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--output-dir", str(outdir))
        assert code == EXIT_OK
        assert "accepted 30 races, rejected 1" in out
        rejects = (outdir / "rejections.csv").read_text().splitlines()
        assert rejects[1:] == ["big,more than 224 entries,"]
        for label in ("1", "2", "3", "4", "longshot"):
            for kind in ("empirical", "theory"):
                assert (outdir / f"eccdf_rank{label}_{kind}.csv").exists()

    def test_zero_accepted_races(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "race_id,horse_id,decimal_odds,won\nr1,h1,2.0,1\nr1,h2,2.0,1\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "out4"
        code, _, err = run(
            capsys, "analyze", "--input", str(bad), "--output-dir", str(outdir)
        )
        assert code == EXIT_USAGE
        assert (outdir / "rejections.csv").exists()


class TestCompare:
    def _analyzed(self, capsys, tmp_path, name, seed, noise="0.0", races=400):
        path = tmp_path / f"{name}.csv"
        run(capsys, "synth", "--races", str(races), "--n-min", "5", "--n-max", "10",
            "--seed", str(seed), "--odds-noise", noise, "--output", str(path))
        outdir = tmp_path / name
        run(capsys, "analyze", "--input", str(path), "--output-dir", str(outdir))
        return outdir / "report.json"

    def test_self_compare_is_clean(self, capsys, tmp_path):
        report = self._analyzed(capsys, tmp_path, "base", seed=3)
        code, out, _ = run(capsys, "compare", str(report), str(report))
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            assert line.rstrip().endswith("0")

    def test_threshold_breach(self, capsys, tmp_path):
        a = self._analyzed(capsys, tmp_path, "a", seed=3)
        b = self._analyzed(capsys, tmp_path, "b", seed=4)
        code, _, err = run(capsys, "compare", str(a), str(b), "--threshold", "1e-9")
        assert code == EXIT_TOLERANCE
        assert "tolerance breach" in err

    def test_noisy_market_diverges_from_clean(self, capsys, tmp_path):
        # same seed means identical field sizes, so theory cells agree and
        # the differences concentrate in the market cells, longshot included
        clean = self._analyzed(capsys, tmp_path, "clean", seed=3, races=3000)
        noisy = self._analyzed(capsys, tmp_path, "noisy", seed=3, noise="0.3", races=3000)
        code, out, err = run(capsys, "compare", str(clean), str(noisy), "--threshold", "3")
        assert code == EXIT_TOLERANCE
        assert "tolerance breach" in err
        lines = out.strip().splitlines()[1:]
        moved = [line for line in lines if not line.rstrip().endswith(" 0")]
        assert any("theory" not in line and "longshot" in line for line in moved)
        assert all("theory" not in line for line in lines[:5])  # theory cells equal

    def test_not_a_report(self, capsys, tmp_path):
        listing = tmp_path / "list.json"
        listing.write_text("[]", encoding="utf-8")
        code, _, err = run(capsys, "compare", str(listing), str(listing))
        assert code == EXIT_USAGE
        assert err == "error: not a report: missing 'buckets'\n"

    def test_shape_mismatch(self, capsys, tmp_path):
        a = self._analyzed(capsys, tmp_path, "a", seed=3)
        payload = json.loads(a.read_text())
        payload["buckets"] = payload["buckets"][:1]
        b = tmp_path / "trimmed.json"
        b.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run(capsys, "compare", str(a), str(b))
        assert code == EXIT_USAGE
        assert "missing in" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert "theory" in out

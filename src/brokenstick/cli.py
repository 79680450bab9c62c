"""Command-line front end.

Subcommands:
  theory    closed-form segment statistics for one field size or a histogram
  simulate  Monte Carlo estimates beside closed forms, gaps in SE units
  synth     generate a synthetic race CSV with known ground truth
  analyze   full report (tables, winner average, survival curves) from a CSV
  compare   cell-by-cell diff of two report JSON files in SE units

Exit codes: 0 success, 1 validation or usage error, 2 tolerance breach in
``simulate``/``compare``.  ``--seed`` and ``--samples`` fall back to the
BROKENSTICK_SEED and BROKENSTICK_SAMPLES environment variables.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

from . import analysis, montecarlo, orderstats, racedata, synth

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2

ENV_SEED = "BROKENSTICK_SEED"
ENV_SAMPLES = "BROKENSTICK_SAMPLES"

DEFAULT_SAMPLES = 100_000


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r} is not an integer") from exc


def _parse_selector(text: str):
    if text == "longshot":
        return "longshot"
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rank must be an integer or 'longshot', got {text!r}")
    if k < 1:
        raise argparse.ArgumentTypeError("rank must be >= 1")
    return k


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _load_histogram(path) -> orderstats.FieldSizeHistogram:
    counts: dict[int, int] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            if row[0].strip().lower() == "n":
                continue  # header
            if len(row) < 2:
                raise ValueError(f"histogram rows need 'n,count', got {row!r}")
            n = int(row[0])
            counts[n] = counts.get(n, 0) + int(row[1])
    if not counts:
        raise ValueError(f"histogram file {path} holds no counts")
    return orderstats.FieldSizeHistogram(counts)


def _fmt(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _emit_rows(rows: list[dict], columns: list[str], args) -> None:
    digits = args.digits
    if args.format == "json":
        rounded = [
            {c: (float(_fmt(r.get(c), digits)) if isinstance(r.get(c), float) else r.get(c)) for c in columns}
            for r in rows
        ]
        text = json.dumps(rounded, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r.get(c), digits) for c in columns])
        text = buf.getvalue()
    else:
        rendered = [[_fmt(r.get(c), digits) for c in columns] for r in rows]
        widths = [max(len(col), *(len(row[i]) for row in rendered)) for i, col in enumerate(columns)]
        lines = ["  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))]
        for row in rendered:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)


def _write_output(text: str, output) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# --- theory and simulate ----------------------------------------------------


def _cond_mean_estimate(n, k, xs, config, workers):
    stats = montecarlo.estimate_winner_stats(n, config, workers)
    if not stats.win_counts[k - 1]:
        raise ValueError(f"rank {k} never won in {config.samples} races; raise --samples")
    return [montecarlo.McEstimate(
        float(stats.conditional_mean[k - 1]), float(stats.conditional_se[k - 1]),
        int(stats.win_counts[k - 1]),
    )]


def _ccdf_estimate(n, k, xs, config, workers):
    p, se = montecarlo.estimate_ccdf(n, k, xs, config, workers)
    return [montecarlo.McEstimate(float(v), float(s), config.samples) for v, s in zip(p, se)]


# Each --stat: its exact values over a field-size histogram at rank k (and,
# for ccdf, at the points xs), from the mixtures ``analyze`` reports, so one
# field size is a histogram of one n; and its Monte Carlo estimates at one n.
_STATISTICS = {
    "mean": (
        lambda hist, k, xs: [orderstats.mixture(hist, "mean", k=k)],
        lambda n, k, xs, config, workers: [montecarlo.estimate_mean(n, k, config, workers)],
    ),
    "second-moment": (
        lambda hist, k, xs: [orderstats.mixture(hist, "second_moment", k=k)],
        lambda n, k, xs, config, workers: [montecarlo.estimate_second_moment(n, k, config, workers)],
    ),
    "cond-mean": (
        lambda hist, k, xs: [orderstats.pooled_conditional_mean_given_win(hist, k)],
        _cond_mean_estimate,
    ),
    "winner-mean": (
        lambda hist, k, xs: [orderstats.mixture(hist, "winner_segment_mean")],
        lambda n, k, xs, config, workers: [montecarlo.estimate_winner_stats(n, config, workers).winner_mean],
    ),
    "ccdf": (lambda hist, k, xs: orderstats.mixture_ccdf(hist, k, xs).tolist(), _ccdf_estimate),
}


def _gap_in_se(stat: str, estimate: montecarlo.McEstimate, exact: float) -> float:
    # A ccdf estimate whose draws all fell on one side of x has sample SE 0:
    # its gap is measured in the binomial SE at the exact value instead.
    if stat == "ccdf" and estimate.se == 0.0:
        se = (exact * (1.0 - exact) / estimate.samples) ** 0.5
        return montecarlo.McEstimate(estimate.value, se, estimate.samples).gap_in_se(exact)
    return estimate.gap_in_se(exact)


def _exact_rows(args, hist, ranks) -> list[tuple]:
    """(k, x, value) rows of ``args.stat`` over ``hist``, one per rank; for ccdf,
    one per point of ``--x`` (or of a quantile grid at ``--n``), sorted.
    winner-mean takes no rank."""
    if args.stat == "winner-mean":
        ranks = [None]
    elif None in ranks:
        raise ValueError(f"statistic {args.stat!r} needs a rank: pass --k")
    if args.stat != "ccdf":
        xs = [None]
    elif args.x:
        xs = sorted(args.x)
    elif args.n:
        (k,) = ranks
        xs = orderstats.quantile_grid(args.n, args.n if k == "longshot" else k, args.grid).tolist()
    else:
        raise ValueError("ccdf over a histogram needs explicit --x points")
    exact = _STATISTICS[args.stat][0]
    return [(k, x, value) for k in ranks for x, value in zip(xs, exact(hist, k, xs))]


def cmd_theory(args) -> int:
    hist = _load_histogram(args.hist) if args.hist else orderstats.FieldSizeHistogram({args.n: 1})
    all_ranks = args.k is None and args.n and args.stat != "ccdf"
    rows = [
        {"n": "mixture" if args.hist else args.n, "k": "" if k is None else k,
         "statistic": args.stat, "x": x, "value": value}
        for k, x, value in _exact_rows(args, hist, range(1, args.n + 1) if all_ranks else [args.k])
    ]
    columns = ["n", "k", "statistic", "x", "value"] if args.stat == "ccdf" else ["n", "k", "statistic", "value"]
    if len(rows) == 1 and args.format == "text" and not args.output:
        sys.stdout.write(_fmt(rows[0]["value"], args.digits) + "\n")
    else:
        _emit_rows(rows, columns, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    samples = args.samples if args.samples is not None else _env_int(ENV_SAMPLES, DEFAULT_SAMPLES)
    seed = args.seed if args.seed is not None else _env_int(ENV_SEED, 0)
    config = montecarlo.SimConfig(
        samples=samples, seed=seed, construction=args.construction, chunk_size=args.chunk_size
    )
    n, k = args.n, args.n if args.k == "longshot" else args.k
    # the exact column first: a bad rank fails before any sampling
    exact = _exact_rows(args, orderstats.FieldSizeHistogram({n: 1}), [k])
    estimates = _STATISTICS[args.stat][1](n, k, [x for _, x, _ in exact], config, args.workers)
    rows = [
        {"statistic": args.stat, "n": n, "k": k, "x": x, "estimate": est.value,
         "se": est.se, "exact": value, "gap_se": _gap_in_se(args.stat, est, value)}
        for (k, x, value), est in zip(exact, estimates)
    ]
    columns = ["statistic", "n", "k", "x", "estimate", "se", "exact", "gap_se"]
    _emit_rows(rows, columns, args)
    worst = max(r["gap_se"] for r in rows)
    if worst > args.max_se:
        sys.stderr.write(f"tolerance breach: worst gap {worst:.2f} SE exceeds {args.max_se}\n")
        return EXIT_TOLERANCE
    return EXIT_OK


# --- synth -------------------------------------------------------------------


def _field_size_law(args) -> orderstats.FieldSizeHistogram:
    picked = [v for v in (args.n_fixed, args.hist, args.n_min or args.n_max) if v]
    if len(picked) != 1:
        raise ValueError("choose exactly one of --n-fixed, --n-min/--n-max, or --hist")
    if args.n_fixed:
        return orderstats.FieldSizeHistogram({args.n_fixed: 1})
    if args.hist:
        return _load_histogram(args.hist)
    if not (args.n_min and args.n_max):
        raise ValueError("--n-min and --n-max must be given together")
    if args.n_max < args.n_min:
        raise ValueError("--n-max must be >= --n-min")
    return orderstats.FieldSizeHistogram({n: 1 for n in range(args.n_min, args.n_max + 1)})


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _env_int(ENV_SEED, 0)
    config = synth.SyntheticDatasetConfig(
        race_count=args.races,
        field_sizes=_field_size_law(args),
        seed=seed,
        odds_noise=args.odds_noise,
        construction=args.construction,
    )
    races = synth.generate_synthetic_dataset(config)
    racedata.write_races_csv(races, args.output)
    histogram = orderstats.FieldSizeHistogram.from_sizes(races.field_size)
    print(f"wrote {len(races)} races ({races.offsets[-1]} rows) to {args.output}")
    print("field sizes: " + ", ".join(f"{n}:{c}" for n, c in sorted(histogram.counts.items())))
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def _rejections_csv(rejections) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["race_id", "reason", "line"])
    for r in rejections:
        writer.writerow([r.race_id or "", r.reason, "" if r.line is None else r.line])
    return buf.getvalue()


def cmd_analyze(args) -> int:
    races, rejections = racedata.parse_races(args.input, overround_delta=args.overround_delta)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "rejections.csv").write_text(_rejections_csv(rejections), encoding="utf-8")
    if not races:
        sys.stderr.write(f"no valid races in {args.input} ({len(rejections)} rejected)\n")
        return EXIT_USAGE

    table = racedata.rank_races(races, renormalize=args.renormalize)
    kept = table.select(table.field_size >= args.min_field_size)
    report = analysis.build_report(
        kept,
        min_field_size=args.min_field_size,
        renormalized=args.renormalize,
        theory_field_size=args.n_fixed,
    )
    (outdir / "report.csv").write_text(
        analysis.report_to_csv_text(report, args.digits), encoding="utf-8"
    )
    (outdir / "report.json").write_text(
        analysis.report_to_json_text(report, args.digits), encoding="utf-8"
    )

    for selector in args.eccdf_ranks:
        label = analysis.selector_label(selector)
        empirical, theory = analysis.eccdf_per_rank(
            kept, selector, theory_field_size=args.n_fixed
        )
        (outdir / f"eccdf_rank{label}_empirical.csv").write_text(
            analysis.curve_to_csv_text(empirical), encoding="utf-8"
        )
        (outdir / f"eccdf_rank{label}_theory.csv").write_text(
            analysis.curve_to_csv_text(theory), encoding="utf-8"
        )

    print(f"accepted {len(races)} races, rejected {len(rejections)}; reports in {outdir}")
    for bucket_report in report.buckets:
        print(f"  bucket {bucket_report.bucket.name}: {bucket_report.races} races")
    return EXIT_OK


# --- compare -----------------------------------------------------------------


def cmd_compare(args) -> int:
    cells_a = analysis.cells_from_json(json.loads(Path(args.report_a).read_text(encoding="utf-8")))
    cells_b = analysis.cells_from_json(json.loads(Path(args.report_b).read_text(encoding="utf-8")))
    missing_b = sorted(set(cells_a) - set(cells_b))
    missing_a = sorted(set(cells_b) - set(cells_a))
    if missing_a or missing_b:
        for key in missing_b:
            sys.stderr.write(f"missing in {args.report_b}: {'/'.join(key)}\n")
        for key in missing_a:
            sys.stderr.write(f"missing in {args.report_a}: {'/'.join(key)}\n")
        return EXIT_USAGE

    rows = []
    for key in cells_a:
        a, b = cells_a[key], cells_b[key]
        if a.value is None and b.value is None:
            diff, gap_se = 0.0, 0.0
        elif a.value is None or b.value is None:
            diff, gap_se = float("nan"), float("inf")
        else:
            diff = abs(a.value - b.value)
            combined = ((a.se or 0.0) ** 2 + (b.se or 0.0) ** 2) ** 0.5
            gap_se = 0.0 if diff == 0.0 else (diff / combined if combined > 0 else float("inf"))
        bucket, rank, statistic = key
        rows.append(
            {"bucket": bucket, "rank": rank, "statistic": statistic,
             "a": a.value, "b": b.value, "diff": diff, "gap_se": gap_se}
        )
    rows.sort(key=lambda r: (-r["gap_se"], r["bucket"], r["rank"], r["statistic"]))
    columns = ["bucket", "rank", "statistic", "a", "b", "diff", "gap_se"]
    _emit_rows(rows, columns, args)
    worst = max((r["gap_se"] for r in rows), default=0.0)
    if worst > args.threshold:
        sys.stderr.write(f"tolerance breach: worst gap {worst} SE exceeds {args.threshold}\n")
        return EXIT_TOLERANCE
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--digits", type=int, default=6, help="significant digits in output")
    parser.add_argument("--output", help="write to this file instead of stdout")


@functools.cache  # built on first use, once per process: not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="brokenstick", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("theory", help="closed-form segment statistics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="field size")
    group.add_argument("--hist", help="field-size histogram CSV (n,count) for mixtures")
    p.add_argument("--k", type=_parse_selector, help="rank (1=favourite) or 'longshot'")
    p.add_argument("--stat", choices=_STATISTICS, required=True)
    p.add_argument("--x", type=_parse_floats, action="extend",
                   help="comma-separated ccdf evaluation points; may repeat")
    p.add_argument("--grid", type=int, default=20, help="quantile grid size for ccdf")
    _add_output_flags(p)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="Monte Carlo vs closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=_parse_selector)
    p.add_argument("--stat", choices=_STATISTICS, required=True)
    p.add_argument("--samples", type=int, help=f"default ${ENV_SAMPLES} or {DEFAULT_SAMPLES}")
    p.add_argument("--seed", type=int, help=f"default ${ENV_SEED} or 0")
    p.add_argument("--construction", choices=montecarlo.CONSTRUCTIONS, default="uniform-cuts")
    p.add_argument("--chunk-size", type=int, default=100_000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--x", type=_parse_floats, action="extend",
                   help="comma-separated ccdf evaluation points; may repeat")
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--max-se", type=float, default=5.0, help="exit 2 if any gap exceeds this")
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic race CSV")
    p.add_argument("--races", type=int, required=True)
    p.add_argument("--n-fixed", type=int, help="every race has this field size")
    p.add_argument("--n-min", type=int, help="uniform field sizes from here")
    p.add_argument("--n-max", type=int, help="uniform field sizes up to here")
    p.add_argument("--hist", help="draw field sizes from this histogram CSV")
    p.add_argument("--seed", type=int, help=f"default ${ENV_SEED} or 0")
    p.add_argument("--odds-noise", type=float, default=0.0,
                   help="log-normal sigma blurring quoted odds (0 = efficient market)")
    p.add_argument("--construction", choices=montecarlo.CONSTRUCTIONS, default="uniform-cuts")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="analyze a race CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--min-field-size", type=int, default=5)
    p.add_argument("--overround-delta", type=float, default=racedata.DEFAULT_OVERROUND_DELTA,
                   help="accept races with implied-odds sum within 1 +/- delta")
    p.add_argument("--renormalize", action="store_true",
                   help="divide implied odds by their sum before ranking")
    p.add_argument("--digits", type=int, default=6)
    p.add_argument("--eccdf-ranks", type=lambda t: [_parse_selector(s) for s in t.split(",")],
                   default=[1, 2, 3, 4, "longshot"])
    p.add_argument("--n-fixed", type=int,
                   help="compute theory columns for this fixed field size instead of "
                        "the input's own histogram")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="diff two report JSON files")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--threshold", type=float, default=5.0, help="exit 2 above this many SE")
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

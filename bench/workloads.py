"""The four benchmark workloads.

Each workload is a closed loop with one client: it issues its next
operation only when the previous one has returned, for the run's time
budget, and records each operation's latency.  The untraced run calls the
library the way a user does.  The traced run (``ctx.tracer`` set) makes one
untraced pass, then the same work again with a span around each call into a
module's public functions; the difference between the two passes is the
tracing overhead.  Outputs are checked after the timed loop, and their
sha256 digests go into ``Result.digests`` so runs of one seed can be
compared.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks
from .racegen import REASONS, reason_slug
from .tracing import Tracer

SELECTORS = (1, 2, 3, 4, "longshot")


@dataclass
class Context:
    seed: int
    seconds: float
    root: Path  # checkout root
    workdir: Path  # scratch space inside the checkout, removed after the run
    env: dict  # environment for child processes, with PYTHONPATH set
    tracer: Tracer | None = None


@dataclass
class Result:
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed_ops: dict[str, list[str]] = field(default_factory=dict)
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # value, unit, samples
    layers: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    peak_rss_mb: float = math.nan

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.setdefault(op, []).append(message)

    def attempt(self, op: str, call: Callable):
        """Count one operation; an exception marks it failed and returns None."""
        self.attempted += 1
        try:
            return call()
        except Exception:  # the loop goes on; the traceback is kept
            self.fail(op, traceback.format_exc(limit=4))
            return None

    def check(self, op: str, call: Callable):
        """Run an output check of an operation already counted; an exception fails it."""
        try:
            return call()
        except Exception:  # a check that cannot run is a failed operation
            self.fail(op, traceback.format_exc(limit=4))
            return None

    def name(self, metric: str, values: list[float], unit: str) -> None:
        """Record a named figure: the median, with the sample count."""
        if values:
            self.named[metric] = (statistics.median(values), unit, len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def timed_passes(seconds: float, one_pass: Callable[[int], object]) -> int:
    """Run ``one_pass(i)`` for about ``seconds``; returns how many passes ran.

    Pass 0 warms up (the heap grows to its working size, files enter the
    page cache): the workloads check its output but report no latency for
    it.  It and one timed pass always run.  A further pass starts only
    while the time gone by plus the median pass so far fits in
    ``seconds``, so a run of long passes ends near its budget instead of
    up to a pass beyond it.  Garbage left by one pass is collected before
    the next is timed.
    """
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < 2 or time.perf_counter() - start + statistics.median(durations) <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        one_pass(len(durations))
        durations.append(time.perf_counter() - t0)
    return len(durations)


def null_span(name: str):
    return contextlib.nullcontext()


def rejection_counts(rejections) -> collections.Counter:
    return collections.Counter(reason_slug(r.reason) or "unknown" for r in rejections)


def count_layers(res: Result, records, rejections) -> None:
    res.layers["racedata.accepted"] = len(records)
    res.layers["racedata.rows"] = sum(len(r.entries) for r in records)
    counts = rejection_counts(rejections)
    for slug in REASONS:
        res.layers[f"racedata.rejected.{slug}"] = counts.get(slug, 0)


def record_digests(res: Result, directory: Path, tag: str) -> None:
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        res.digests[f"{tag}{path.relative_to(directory)}"] = sha256_file(path)


def same_digests(res: Result, first: str, later: str, op: str) -> None:
    """A later pass of one seed must write the bytes the first pass wrote."""
    for key in [k for k in res.digests if k.startswith(later)]:
        name = key[len(later):]
        if res.digests[key] != res.digests.get(first + name):
            res.fail(op, f"{name} differs from the first pass")
        del res.digests[key]


# --- market-6k --------------------------------------------------------------------

MARKET_RACES = 6_000
MARKET_SIZES = (5, 10)
CURVE_POINTS_CHECKED = 40  # per curve, for the exact-rational comparison
# The calls the traced CLI pass opens a span around: (module, attribute, span).
# ``cli`` reaches each through its module, and ``analysis`` imported
# ``mixture_ccdf`` by name, so swapping these attributes sees every call.
MARKET_SPANS = (
    ("synth", "generate_synthetic_dataset", "synth.generate"),
    ("racedata", "write_races_csv", "racedata.to_csv"),
    ("racedata", "parse_races", "racedata.parse"),
    ("racedata", "rank_races", "racedata.rank"),
    ("analysis", "build_report", "analysis.build_report"),
    ("analysis", "report_to_csv_text", "analysis.serialize"),
    ("analysis", "report_to_json_text", "analysis.serialize"),
    ("analysis", "curve_to_csv_text", "analysis.serialize"),
    ("analysis", "eccdf_per_rank", "analysis.eccdf"),
    ("analysis", "mixture_ccdf", "orderstats.mixture_ccdf"),
)


def _market_cli_pass(ctx: Context, res: Result, directory: Path, op: str, span=null_span):
    """``brokenstick synth`` then ``brokenstick analyze``; (synth_s, analyze_s) or None."""
    from brokenstick import cli

    races, out = directory / "races.csv", directory / "out"
    directory.mkdir(parents=True)
    synth_args = ["synth", "--races", str(MARKET_RACES), "--n-min", str(MARKET_SIZES[0]),
                  "--n-max", str(MARKET_SIZES[1]), "--seed", str(ctx.seed), "--output", str(races)]
    analyze_args = ["analyze", "--input", str(races), "--output-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with span("synth"):
            code = res.attempt(f"{op}synth", lambda: cli.main(synth_args))
        t1 = time.perf_counter()
        if code != 0:
            res.fail(f"{op}synth", f"synth exited {code}")
            return None
        with span("analyze"):
            code = res.attempt(f"{op}analyze", lambda: cli.main(analyze_args))
        t2 = time.perf_counter()
    if code != 0:
        res.fail(f"{op}analyze", f"analyze exited {code}")
        return None
    return t1 - t0, t2 - t1


def _all_bucket_counts(payload: dict) -> dict[int, int]:
    bucket = next(b for b in payload["buckets"] if b["name"] == "all")
    return {int(n): c for n, c in bucket["field_size_counts"].items()}


def check_market_outputs(ctx: Context, res: Result, directory: Path, op: str) -> float:
    """Cells, curves and sampled theory points of one analyze output; max theory error.

    A missing or unreadable file raises, which fails the pass.
    """
    out = directory / "out"
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    failures, worst_cell = checks.report_cell_failures(payload)
    counts = _all_bucket_counts(payload)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([ctx.seed, 12])))
    worst_ks = 0.0
    errors = []
    for selector in SELECTORS:
        label = checks.rank_label(selector)
        xs_e, s_e = checks.read_curve((out / f"eccdf_rank{label}_empirical.csv").read_text())
        xs_t, s_t = checks.read_curve((out / f"eccdf_rank{label}_theory.csv").read_text())
        usable = checks.usable_counts(counts, selector)
        distance = checks.curve_sup_distance(xs_e, s_e, xs_t, s_t)
        ratio = distance / checks.ks_critical_value(sum(usable.values()))
        worst_ks = max(worst_ks, ratio)
        if not ratio < 1.0:
            failures.append(f"rank {label}: sup distance {ratio:.2f} of the KS 1% value")
        picks = rng.choice(len(xs_t), size=min(CURVE_POINTS_CHECKED, len(xs_t)), replace=False)
        errors += checks.theory_point_errors([(xs_t[i], s_t[i]) for i in sorted(picks)], usable, selector)
    worst_err = max(errors)
    if not worst_err <= checks.THEORY_TOL:
        failures.append(f"theory curve off exact by {worst_err:.3e} > {checks.THEORY_TOL}")
    for message in failures:
        res.fail(f"{op}analyze", message)
    res.details[f"{op}worst_cell_gap_se"] = worst_cell
    res.details[f"{op}worst_ks_ratio"] = worst_ks
    return worst_err


def market(ctx: Context) -> Result:
    """``synth`` 6,000 races with field sizes 5..10, then ``analyze`` them."""
    res = Result()
    synth_s, analyze_s = [], []
    done: list[str] = []  # passes whose analyze exited 0, checked below

    def one_pass(i: int, span=null_span) -> float | None:
        tag = f"pass{i}/" if span is null_span else "traced/"
        spans = _market_cli_pass(ctx, res, ctx.workdir / tag, tag, span)
        if spans is None:
            return None
        done.append(tag)
        if span is null_span and i > 0:
            synth_s.append(spans[0])
            analyze_s.append(spans[1])
            res.latencies_s.append(sum(spans))
        return sum(spans)

    if ctx.tracer is None:
        timed_passes(ctx.seconds, one_pass)
        res.peak_rss_mb = peak_rss_mb()
    else:
        from brokenstick import analysis, racedata, synth

        modules = {"analysis": analysis, "racedata": racedata, "synth": synth}
        untraced = one_pass(0)
        ctx.tracer.op = 1
        with ctx.tracer.patched((modules[m], attr, name) for m, attr, name in MARKET_SPANS):
            traced = one_pass(1, ctx.tracer.span)
        if untraced is not None and traced is not None:
            res.check("traced/analyze", lambda: _market_layers(ctx, res, traced - untraced))
    worst = 0.0
    for tag in done:
        error = res.check(f"{tag}analyze", lambda: check_market_outputs(ctx, res, ctx.workdir / tag, tag))
        worst = max(worst, math.inf if error is None else error)
        record_digests(res, ctx.workdir / tag, tag)
    for tag in done[1:]:
        same_digests(res, done[0], tag, f"{tag}analyze")
    res.name("synth_s", synth_s, "s")
    res.name("analyze_s", analyze_s, "s")
    res.named["theory_max_abs_err"] = (worst, "prob", len(done) * len(SELECTORS) * CURVE_POINTS_CHECKED)
    res.layers["theory_max_abs_err"] = worst
    return res


def _market_layers(ctx: Context, res: Result, overhead: float) -> None:
    """Per-layer figures of the traced CLI pass, all from spans of that one pass."""
    tracer = ctx.tracer
    out = ctx.workdir / "traced" / "out"
    counts = _all_bucket_counts(json.loads((out / "report.json").read_text(encoding="utf-8")))
    evals = 0  # survival evaluations: grid points times field sizes, over the curves
    for selector in SELECTORS:
        xs, _ = checks.read_curve((out / f"eccdf_rank{checks.rank_label(selector)}_theory.csv").read_text())
        evals += len(xs) * len(checks.usable_counts(counts, selector))
    with open(out / "rejections.csv", newline="", encoding="utf-8") as fh:
        rejected = collections.Counter(reason_slug(row["reason"]) or "unknown" for row in csv.DictReader(fh))
    kernel = tracer.total("orderstats.mixture_ccdf")
    parse_s = tracer.total("racedata.parse")
    rows = sum(n * c for n, c in counts.items())
    res.layers.update({
        "synth.generate_s": tracer.total("synth.generate"),
        "racedata.to_csv_s": tracer.total("racedata.to_csv"),
        "racedata.parse_s": parse_s,
        "racedata.parse_rows_per_s": rows / parse_s if parse_s else 0.0,
        "racedata.rank_s": tracer.total("racedata.rank"),
        "racedata.rows": rows,  # every synth race has n >= 5, so all pass the field-size cut
        "racedata.accepted": sum(counts.values()),
        **{f"racedata.rejected.{slug}": rejected.get(slug, 0) for slug in REASONS},
        "analysis.build_report_s": tracer.total("analysis.build_report"),
        "analysis.serialize_s": tracer.total("analysis.serialize"),
        "analysis.eccdf_s": tracer.total("analysis.eccdf"),
        "analysis.eccdf_self_s": tracer.self_total("analysis.eccdf"),
        "orderstats.mixture_ccdf_s": kernel,
        "orderstats.mixture_ccdf.evals_per_s": evals / kernel if kernel else 0.0,
        "cli.overhead_s": tracer.self_total("analyze"),
        "tracing_overhead_s": overhead,
    })


# --- tables-24k ---------------------------------------------------------------------

TABLES_RACES = 24_000


def _generate_tables_input(ctx: Context) -> tuple[Path, dict]:
    """Run the generator in a child, so its memory stays out of the peak RSS."""
    path = ctx.workdir / "races.csv"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "bench.racegen", "--seed", str(ctx.seed),
         "--races", str(TABLES_RACES), "--out", str(path)],
        check=True, env=ctx.env, cwd=ctx.root, timeout=120,
    )
    expected = json.loads(Path(f"{path}.expected.json").read_text())
    expected["generate_s"] = time.perf_counter() - start
    return path, expected


def check_tables(res: Result, op: str, expected: dict, records, rejections, report) -> None:
    """Rejections by reason equal the injected counts; every race is accounted for."""
    counts = rejection_counts(rejections)
    want = {slug: expected["rejected"][slug] for slug in REASONS}
    got = {slug: counts.get(slug, 0) for slug in REASONS}
    if got != want or set(counts) - set(REASONS):
        res.fail(op, f"rejections by reason {dict(counts)} != injected {want}")
    accepted_rows = sum(len(r.entries) for r in records)
    if len(records) != expected["accepted"] or accepted_rows != expected["accepted_rows"]:
        res.fail(op, f"accepted {len(records)} races / {accepted_rows} rows, expected "
                     f"{expected['accepted']} / {expected['accepted_rows']}")
    if len(records) + len(rejections) != expected["races"]:
        res.fail(op, "accepted + rejected != distinct race ids")
    kept = next((b.races for b in report.buckets if b.bucket.name == "all"), 0)
    if kept != expected["accepted"] - expected["below_min_field_size"]:
        res.fail(op, f"{kept} races past the field-size cut, expected "
                     f"{expected['accepted'] - expected['below_min_field_size']}")


def _tables_pass(res: Result, path: Path, out: Path, expected: dict, span, op: str) -> float | None:
    from brokenstick import analysis, cli, racedata

    out.mkdir()

    def chain():
        with span("analyze"):
            with span("racedata.parse"):
                records, rejections = racedata.parse_races(str(path))
            with span("racedata.rank"):
                races = racedata.rank_races(records)
            with span("analysis.build_report"):
                report = analysis.build_report(races)
            with span("analysis.serialize"):
                texts = {"report.csv": analysis.report_to_csv_text(report),
                         "report.json": analysis.report_to_json_text(report),
                         "rejections.csv": cli._rejections_csv(rejections)}
            for name, text in texts.items():
                (out / name).write_text(text, encoding="utf-8")
        return records, rejections, report

    start = time.perf_counter()
    outcome = res.attempt(op, chain)
    latency = time.perf_counter() - start
    if outcome is None:
        return None
    res.check(op, lambda: check_tables(res, op, expected, *outcome))
    if span is not null_span:
        count_layers(res, *outcome[:2])
    return latency


def tables(ctx: Context) -> Result:
    """``parse_races`` -> ``rank_races`` -> ``build_report`` -> files, at 24,000 races."""
    res = Result()
    path, expected = _generate_tables_input(ctx)
    res.details["input"] = {k: v for k, v in expected.items() if k != "seed"}
    res.digests["input/races.csv"] = sha256_file(path)

    def one_pass(i: int, span=null_span) -> float | None:
        tag = f"pass{i}/" if span is null_span else "traced/"
        latency = _tables_pass(res, path, ctx.workdir / tag, expected, span, tag)
        if latency is not None:
            record_digests(res, ctx.workdir / tag, tag)
            if span is null_span and i > 0:
                res.latencies_s.append(latency)
        return latency

    if ctx.tracer is None:
        passes = timed_passes(ctx.seconds, one_pass)
        res.peak_rss_mb = peak_rss_mb()
        for i in range(1, passes):
            same_digests(res, "pass0/", f"pass{i}/", f"pass{i}/")
        res.name("analyze_s", res.latencies_s, "s")
    else:
        tracer = ctx.tracer
        untraced = one_pass(0)
        tracer.op = 1
        traced = one_pass(1, tracer.span)
        if untraced is not None and traced is not None:
            parse_s = tracer.total("racedata.parse")
            res.layers.update({
                "racedata.parse_s": parse_s,
                "racedata.parse_rows_per_s": expected["rows"] / parse_s,
                "racedata.rank_s": tracer.total("racedata.rank"),
                "analysis.build_report_s": tracer.total("analysis.build_report"),
                "analysis.serialize_s": tracer.total("analysis.serialize"),
                "tracing_overhead_s": traced - untraced,
            })
    res.details["generate_s"] = expected["generate_s"]
    return res


# --- mc-oracle ----------------------------------------------------------------------

MC_N = 12  # ccdf grid and moments
MC_WINNER_N = 9
MC_GRID = 20
MC_SAMPLES = 200_000
MC_WORKERS = 2


def _oracle_pass(ctx: Context, res: Result, span, op: str):
    """One ``simulate``-style comparison; returns (worst gap in SE, digest) or None."""
    from brokenstick import montecarlo, orderstats

    def config(stream: int, construction: str = "uniform-cuts"):
        seed = (ctx.seed * 8 + stream) % 2**64
        return montecarlo.SimConfig(MC_SAMPLES, seed=seed, construction=construction)

    def grids():
        with span("orderstats.quantile_grid"):
            return {k: orderstats.quantile_grid(MC_N, k, MC_GRID) for k in range(1, MC_N + 1)}

    by_k = res.attempt(f"{op}quantile_grid", grids)
    if by_k is None:
        return None
    union = np.unique(np.concatenate(list(by_k.values())))
    ccdf = {}
    for i, construction in enumerate(montecarlo.CONSTRUCTIONS):
        name = f"montecarlo.estimate_ccdf_all_ranks.{construction.replace('-', '_')}"

        def estimate(construction=construction, i=i, name=name):
            with span(name):
                return montecarlo.estimate_ccdf_all_ranks(
                    MC_N, union, config(i, construction), workers=MC_WORKERS)

        ccdf[construction] = res.attempt(f"{op}{name}", estimate)

    def winner():
        with span("montecarlo.estimate_winner_stats"):
            return montecarlo.estimate_winner_stats(MC_WINNER_N, config(2), workers=MC_WORKERS)

    k = 1 + ctx.seed % MC_N

    def moment(fn, stream):
        with span(f"montecarlo.{fn.__name__}"):
            return fn(MC_N, k, config(stream), workers=MC_WORKERS)

    wins = res.attempt(f"{op}estimate_winner_stats", winner)
    mean = res.attempt(f"{op}estimate_mean", lambda: moment(montecarlo.estimate_mean, 3))
    m2 = res.attempt(f"{op}estimate_second_moment", lambda: moment(montecarlo.estimate_second_moment, 4))

    def compare() -> dict[str, list[float]]:
        """The exact comparisons: every estimate's gap to its closed form, in SE."""
        gaps: dict[str, list[float]] = collections.defaultdict(list)
        law = orderstats.SegmentLaw(MC_N)
        for construction, estimate in ccdf.items():
            if estimate is None:
                continue
            p, se = estimate
            for rank, xs in by_k.items():
                idx = np.searchsorted(union, xs)
                for x, p_hat, s in zip(xs, p[rank - 1, idx], se[rank - 1, idx]):
                    gaps[f"estimate_ccdf_all_ranks.{construction.replace('-', '_')}"].append(
                        checks.gap_in_se(p_hat, law.ccdf(rank, x), s))
        if wins is not None:
            for r in range(1, MC_WINNER_N + 1):
                gaps["estimate_winner_stats"] += [
                    checks.gap_in_se(wins.win_frequency[r - 1], orderstats.mean_kth_largest(MC_WINNER_N, r),
                                     wins.win_frequency_se[r - 1]),
                    checks.gap_in_se(wins.conditional_mean[r - 1],
                                     orderstats.conditional_mean_given_win(MC_WINNER_N, r),
                                     wins.conditional_se[r - 1]),
                ]
            gaps["estimate_winner_stats"].append(checks.gap_in_se(
                wins.winner_mean.value, orderstats.winner_segment_mean(MC_WINNER_N), wins.winner_mean.se))
        if mean is not None:
            gaps["estimate_mean"].append(
                checks.gap_in_se(mean.value, orderstats.mean_kth_largest(MC_N, k), mean.se))
        if m2 is not None:
            gaps["estimate_second_moment"].append(
                checks.gap_in_se(m2.value, orderstats.second_moment_kth_largest(MC_N, k), m2.se))
        return gaps

    def compare_traced():
        with span("oracle.compare"):
            return compare()

    gaps = res.attempt(f"{op}compare", compare_traced)
    worst = math.inf if gaps is None else 0.0
    for name, values in (gaps or {}).items():
        top = max(values)  # gap_in_se is never NaN: a non-finite input gives inf
        worst = max(worst, top)
        if not top <= checks.MAX_GAP_SE:
            res.fail(f"{op}{name}", f"worst gap {top:.2f} SE > {checks.MAX_GAP_SE}")
    parts = [v for est in ccdf.values() if est is not None for v in est]
    parts += list(by_k.values())
    if wins is not None:
        parts += [wins.win_frequency, wins.conditional_mean, [wins.winner_mean.value]]
    parts += [[e.value, e.se] for e in (mean, m2) if e is not None]
    return worst, sha256_arrays(*parts), union


def mc_oracle(ctx: Context) -> Result:
    """Monte Carlo estimators at 2 x 10^5 samples against the closed forms."""
    res = Result()
    worst_gap = 0.0
    grid: list[float] = []  # the ccdf grid of the last pass

    def one_pass(i: int, span=null_span) -> float | None:
        nonlocal worst_gap
        tag = f"pass{i}/" if span is null_span else "traced/"
        start = time.perf_counter()
        with span("oracle"):
            outcome = _oracle_pass(ctx, res, span, tag)
        latency = time.perf_counter() - start
        if outcome is None:
            return None
        worst_gap = max(worst_gap, outcome[0])
        res.digests[f"{tag}estimates"] = outcome[1]
        grid[:] = outcome[2]
        if span is null_span and i > 0:
            res.latencies_s.append(latency)
        return latency

    if ctx.tracer is None:
        passes = timed_passes(ctx.seconds, one_pass)
        res.peak_rss_mb = peak_rss_mb()
        for i in range(1, passes):
            same_digests(res, "pass0/", f"pass{i}/", f"pass{i}/estimates")
        res.name("oracle_s", res.latencies_s, "s")
    else:
        tracer = ctx.tracer
        untraced = one_pass(0)
        tracer.op = 1
        traced = one_pass(1, tracer.span)
        if untraced is not None and traced is not None:
            same_digests(res, "pass0/", "traced/", "traced/estimates")
            res.check("traced/oracle", lambda: _mc_layers(ctx, res, grid, traced - untraced, worst_gap))
    res.details["worst_gap_se"] = worst_gap
    return res


def _mc_layers(ctx: Context, res: Result, grid, overhead: float, worst_gap: float) -> None:
    from brokenstick import montecarlo

    tracer = ctx.tracer
    # The chain's uniform-cuts call again with one worker, for the scaling.
    tracer.op = 2
    with tracer.span("probe.montecarlo.estimate_ccdf_all_ranks.workers1"):
        montecarlo.estimate_ccdf_all_ranks(
            MC_N, grid, montecarlo.SimConfig(MC_SAMPLES, seed=ctx.seed * 8 % 2**64), workers=1)
    uniform = tracer.total("montecarlo.estimate_ccdf_all_ranks.uniform_cuts")
    moments = tracer.total("montecarlo.estimate_mean") + tracer.total("montecarlo.estimate_second_moment")
    res.layers.update({
        "orderstats.quantile_grid_s": tracer.total("orderstats.quantile_grid"),
        "montecarlo.uniform_cuts.samples_per_s": MC_SAMPLES / uniform,
        "montecarlo.exponential_ratio.samples_per_s":
            MC_SAMPLES / tracer.total("montecarlo.estimate_ccdf_all_ranks.exponential_ratio"),
        "montecarlo.winner.samples_per_s": MC_SAMPLES / tracer.total("montecarlo.estimate_winner_stats"),
        "montecarlo.moment.samples_per_s": 2 * MC_SAMPLES / moments,
        "montecarlo.scaling_efficiency":
            tracer.total("probe.montecarlo.estimate_ccdf_all_ranks.workers1") / (MC_WORKERS * uniform),
        "montecarlo.worst_gap_se": worst_gap,
        "tracing_overhead_s": overhead,
    })


# --- theory-queries -----------------------------------------------------------------

QUERY_MIX = (  # kind, queries of that kind in every block of 20
    ("ccdf_float", 8),  # ccdf_kth_largest, n in 2..20
    ("ccdf_mp", 3),  # ccdf_kth_largest, n in 21..40 (the mpmath path)
    ("ccdf_inverse", 3),  # n in 2..20
    ("mixture", 4),  # over the reference histogram, every statistic
    ("quadrature", 2),  # moments, n in 2..15
)
MIN_QUERIES = 1_000  # so the 99th percentile has ten samples beyond it
DIGEST_QUERIES = 1_000
_MIXTURE_SELECTORS = (1, 2, 3, 4, 5, "longshot")


def query_stream(seed: int):
    """Endless seeded stream of (kind, args) queries.

    Kinds come in shuffled blocks that hold the mix exactly, so the median
    latency does not move with the sampled share of fast and slow kinds.
    """
    from brokenstick.orderstats import STATISTICS

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 31])))
    block = [kind for kind, count in QUERY_MIX for _ in range(count)]
    while True:
        for kind in rng.permutation(block).tolist():
            if kind == "mixture":
                selector = _MIXTURE_SELECTORS[rng.integers(len(_MIXTURE_SELECTORS))]
                statistic = STATISTICS[rng.integers(len(STATISTICS))]
                x = rng.random() / (5 if selector == "longshot" else selector)
                yield kind, (statistic, selector, x if statistic == "ccdf" else None)
                continue
            lo, hi = {"ccdf_mp": (21, 40), "quadrature": (2, 15)}.get(kind, (2, 20))
            n = int(rng.integers(lo, hi + 1))
            k = int(rng.integers(1, n + 1))
            if kind == "ccdf_inverse":
                yield kind, (n, k, 0.01 + 0.98 * rng.random())
            elif kind == "quadrature":
                yield kind, (n, k, int(rng.integers(1, 3)))
            else:
                yield kind, (n, k, rng.random() / k)


def query_functions():
    """kind -> callable(*args) into the library."""
    from brokenstick import orderstats, quadrature
    from brokenstick.reference import reference_field_size_histogram

    hist = reference_field_size_histogram()
    moments = {1: quadrature.mean_via_quadrature, 2: quadrature.second_moment_via_quadrature}
    return {
        "ccdf_float": orderstats.ccdf_kth_largest,
        "ccdf_mp": orderstats.ccdf_kth_largest,
        "ccdf_inverse": orderstats.ccdf_inverse,
        "mixture": lambda statistic, selector, x: orderstats.mixture(hist, statistic, k=selector, x=x),
        "quadrature": lambda n, k, power: moments[power](n, k),
    }


def exact_query(kind: str, args: tuple, counts: dict):
    """The exact value a query should return, or for ccdf_inverse the level p."""
    if kind in ("ccdf_float", "ccdf_mp"):
        return checks.exact_ccdf(*args)
    if kind == "mixture":
        return checks.exact_mixture(counts, *args)
    n, k, power = args
    return checks.exact_mean(n, k) if power == 1 else checks.exact_second_moment(n, k)


def query_error(kind: str, args: tuple, value: float, counts: dict) -> float:
    if kind == "ccdf_inverse":  # the survival at the returned x must be the level asked
        n, k, p = args
        if not math.isfinite(value):
            return math.inf
        return float(abs(checks.exact_ccdf(n, k, value) - checks.Fraction(p)))
    return checks.abs_error(value, exact_query(kind, args, counts))


def check_queries(res: Result, issued: list, values: list[float],
                  raised: frozenset[int] = frozenset()) -> dict[str, float]:
    """Fail every query off its exact value by more than the tolerance; worst error per kind.

    Queries in ``raised`` failed when they were issued and are skipped.  Any
    other value that is not finite is infinitely far from exact, so it fails
    and sets its kind's worst error to inf.
    """
    from brokenstick.reference import reference_field_size_histogram

    counts = reference_field_size_histogram().counts
    worst: dict[str, float] = collections.defaultdict(float)
    for index, ((kind, args), value) in enumerate(zip(issued, values)):
        if index in raised:
            continue
        error = res.check(f"q{index}", lambda: query_error(kind, args, value, counts))
        if error is None:
            continue
        worst[kind] = max(worst[kind], error)
        if not error <= checks.THEORY_TOL:
            res.fail(f"q{index}", f"{kind}{args} = {value!r} off exact by {error:.3e}")
    return worst


def _run_queries(queries, functions, res: Result, tracer: Tracer | None, latencies: list,
                 values: list, raised: set[int], deadline: float | None) -> float:
    """Issue queries until the deadline (and at least MIN_QUERIES) or their end; wall time.

    A query that raises is failed, its value is NaN and its index goes into ``raised``.
    """
    span = null_span if tracer is None else tracer.span
    start = time.perf_counter()
    for index, (kind, args) in enumerate(queries):
        fn = functions[kind]
        res.attempted += 1
        if tracer is not None:
            tracer.op = index
        with span(kind):
            t0 = time.perf_counter()
            try:
                value = float(fn(*args))
            except Exception:  # counted as a failed query; the stream goes on
                value = math.nan
                raised.add(index)
                res.fail(f"q{index}", traceback.format_exc(limit=4))
            t1 = time.perf_counter()
        latencies.append(t1 - t0)
        values.append(value)
        if deadline is not None and index + 1 >= MIN_QUERIES and t1 - start >= deadline:
            break
    return time.perf_counter() - start


def theory(ctx: Context) -> Result:
    """A seeded stream of scalar closed-form queries, each timed on its own."""
    res = Result()
    functions = query_functions()
    issued: list[tuple[str, tuple]] = []
    values: list[float] = []
    raised: set[int] = set()

    def recorded():
        for query in query_stream(ctx.seed):
            issued.append(query)
            yield query

    untraced_wall = _run_queries(recorded(), functions, res, None, res.latencies_s, values, raised,
                                 ctx.seconds)
    res.peak_rss_mb = peak_rss_mb()
    kinds = [kind for kind, _ in issued]
    by_kind = collections.defaultdict(list)
    for kind, latency in zip(kinds, res.latencies_s):
        by_kind[kind].append(latency)

    if ctx.tracer is not None:
        tracer = ctx.tracer
        traced_latencies: list[float] = []
        traced_values: list[float] = []
        traced_wall = _run_queries(issued, functions, res, tracer, traced_latencies, traced_values,
                                   set(), None)
        res.layers["tracing_overhead_s"] = traced_wall - untraced_wall
        res.layers.update({
            "orderstats.ccdf_float_us": 1e6 * statistics.median(tracer.durations("ccdf_float")),
            "orderstats.ccdf_mp_us": 1e6 * statistics.median(tracer.durations("ccdf_mp")),
            "orderstats.ccdf_inverse_ms": 1e3 * statistics.median(tracer.durations("ccdf_inverse")),
            "orderstats.mixture_us": 1e6 * statistics.median(tracer.durations("mixture")),
            "quadrature.moment_ms": 1e3 * statistics.median(tracer.durations("quadrature")),
        })
        if sha256_arrays(traced_values) != sha256_arrays(values):
            res.fail("traced", "traced replay returned different values")

    worst = check_queries(res, issued, values, frozenset(raised))
    res.digests["values"] = sha256_arrays(values[:DIGEST_QUERIES])
    overall = max(worst.values(), default=0.0)
    res.named["theory_max_abs_err"] = (overall, "prob", len(values))
    res.layers.update({
        "theory_max_abs_err": overall,
        "orderstats.max_abs_err.float": worst["ccdf_float"],
        "orderstats.max_abs_err.mp": worst["ccdf_mp"],
    })
    p50, p99 = np.percentile(res.latencies_s, [50, 99])
    res.named["query_p50_ms"] = (1e3 * p50, "ms", len(res.latencies_s))
    res.named["query_p99_ms"] = (1e3 * p99, "ms", len(res.latencies_s))
    res.details["queries_by_kind"] = {k: len(v) for k, v in sorted(by_kind.items())}
    res.details["median_ms_by_kind"] = {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())}
    return res


RUNNERS = {
    "market-6k": market,
    "tables-24k": tables,
    "mc-oracle": mc_oracle,
    "theory-queries": theory,
}

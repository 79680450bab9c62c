"""Empirical race statistics with matched parameter-free theory columns.

For each field-size bucket and each rank selector (favourite through 4th
favourite, plus the longshot = rank n per race) the report carries:

  mean_implied_odds             E[Q_(k)], sample mean with standard error
  win_frequency                 E[P_(k)], win fraction with binomial SE
  segment_mean_theory           E[z_(k)], mixture over the bucket's field sizes
  implied_odds_given_win        E[Q_(k) | rank k won], with SE
  segment_mean_given_win_theory size-biased mean under the same mixture
  winner_odds_mean              mean implied odds of the winning horse
  winner_segment_mean_theory    mixture of 2/(n+1)

Theory cells are computed solely from the bucket's own field-size
histogram; nothing is fitted.  Every cell is either populated or explicitly
marked absent with a diagnostic note.

The conditional theory column is the size-biased mean of the pooled
mixture, sum_n w_n E[z^2] / sum_n w_n E[z]: pooling races across field
sizes weights each n by how often rank k wins there, which is what the
conditioned empirical column estimates.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .orderstats import (
    FieldSizeHistogram,
    mixture,
    mixture_ccdf,
    pooled_conditional_mean_given_win,
)
from .racedata import RaceTable
from .stats import EccdfCurve, eccdf

__all__ = [
    "RANK_SELECTORS",
    "RANK_STATISTICS",
    "FieldSizeBucket",
    "Cell",
    "BucketReport",
    "AnalysisReport",
    "eccdf_per_rank",
    "build_report",
    "report_to_csv_text",
    "report_to_json_text",
    "report_cells",
    "cells_from_json",
    "curve_to_csv_text",
]

RANK_SELECTORS: tuple = (1, 2, 3, 4, "longshot")

# Each rank's statistics, in the order the writers emit them; a bucket's two
# winner cells follow its ranks, under the rank label "winner".
RANK_STATISTICS = (
    "mean_implied_odds",
    "win_frequency",
    "segment_mean_theory",
    "implied_odds_given_win",
    "segment_mean_given_win_theory",
)


@dataclass(frozen=True)
class FieldSizeBucket:
    """Named inclusive field-size range; ``hi=None`` means unbounded."""

    name: str
    lo: int
    hi: int | None = None

    def contains(self, n):
        """Whether field size n falls in the bucket; elementwise on arrays."""
        return (n >= self.lo) & (self.hi is None or n <= self.hi)


@dataclass(frozen=True)
class Cell:
    """One report number: value with uncertainty, or an explicit absence."""

    value: float | None
    se: float | None
    count: int
    note: str = ""


@dataclass(frozen=True)
class BucketReport:
    """One bucket's races and its cells, keyed (rank label, statistic) in writing order."""

    bucket: FieldSizeBucket
    races: int
    histogram: FieldSizeHistogram
    cells: dict[tuple[str, str], Cell]
    tie_count: int = 0


@dataclass(frozen=True)
class AnalysisReport:
    buckets: tuple[BucketReport, ...]
    renormalized: bool


def selector_label(selector) -> str:
    return "longshot" if selector == "longshot" else str(int(selector))


def _mean_cell(values: Sequence[float], empty_note: str) -> Cell:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return Cell(None, None, 0, empty_note)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return Cell(float(values.mean()), se, int(values.size))


def _freq_cell(hits: int, total: int) -> Cell:
    p = hits / total
    return Cell(p, math.sqrt(p * (1.0 - p) / total), total)


def _rank_rows(table: RaceTable, selector, among) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The selector's rank in the races of mask ``among`` that have it.

    Returns the mask of those races, the rank's row in each, and whether
    that row won.
    """
    sizes = table.field_size
    rank = sizes if selector == "longshot" else int(selector)
    usable = among & (sizes >= rank)
    rows = (table.offsets[:-1] + rank - 1)[usable]
    return usable, rows, (table.winner_rank == rank)[usable]


def _bucket_report(table: RaceTable, bucket: FieldSizeBucket) -> BucketReport:
    """Every rank's cells and the winner cells of one nonempty bucket.

    A fixed rank k only uses races with field size >= k; if the bucket holds
    none, the rank's cells are marked absent rather than zero.
    """
    sizes = table.field_size
    in_bucket = bucket.contains(sizes)
    cells: dict[tuple[str, str], Cell] = {}
    for selector in RANK_SELECTORS:
        usable, picked, won = _rank_rows(table, selector, in_bucket)
        count = int(usable.sum())
        if count:
            q = table.implied_odds[picked]
            hist = FieldSizeHistogram.from_sizes(sizes[usable])
            values = (
                _mean_cell(q, ""),
                _freq_cell(int(won.sum()), count),
                Cell(mixture(hist, "mean", k=selector), None, count),
                _mean_cell(q[won], "no wins at this rank"),
                Cell(pooled_conditional_mean_given_win(hist, selector), None, count),
            )
        else:
            absent = Cell(None, None, 0, f"no races with field size >= {selector}")
            values = [absent] * len(RANK_STATISTICS)
        cells.update(zip([(selector_label(selector), s) for s in RANK_STATISTICS], values))
    races = int(in_bucket.sum())
    histogram = FieldSizeHistogram.from_sizes(sizes[in_bucket])
    winner_rows = (table.offsets[:-1] + table.winner_rank - 1)[in_bucket]
    cells["winner", "winner_odds_mean"] = _mean_cell(table.implied_odds[winner_rows], "")
    cells["winner", "winner_segment_mean_theory"] = Cell(
        mixture(histogram, "winner_segment_mean"), None, races
    )
    return BucketReport(
        bucket=bucket,
        races=races,
        histogram=histogram,
        cells=cells,
        tie_count=int(table.tie_count[in_bucket].sum()),
    )


def eccdf_per_rank(table: RaceTable, selector) -> tuple[EccdfCurve, EccdfCurve]:
    """Pooled empirical survival of Q_(k) plus the mixture theory curve.

    All field sizes are pooled; the theory curve weights each per-n survival
    by that n's share of the selected races.  Both curves are evaluated at
    the sorted set of observed values.
    """
    usable, picked, _ = _rank_rows(table, selector, True)
    if not usable.any():
        raise ValueError(f"empty selection: no races usable for rank {selector!r}")
    empirical = eccdf(table.implied_odds[picked])
    hist = FieldSizeHistogram.from_sizes(table.field_size[usable])
    theory = EccdfCurve(empirical.x, mixture_ccdf(hist, selector, empirical.x))
    return empirical, theory


def build_report(table: RaceTable, min_field_size: int = 5) -> AnalysisReport:
    """Assemble the per-bucket report from ranked races.

    Races below ``min_field_size`` are dropped.  Bucket ``all`` holds every
    race kept; a size bucket with no races is left out of the report.  The
    report is labelled renormalized as the table is.
    """
    if min_field_size < 1:
        raise ValueError(f"min_field_size must be >= 1, got {min_field_size}")
    kept = table.select(table.field_size >= min_field_size)
    if not len(kept):
        raise ValueError(f"no races with field size >= {min_field_size}")
    buckets = (
        FieldSizeBucket("all", min_field_size),
        FieldSizeBucket("small", 5, 7),
        FieldSizeBucket("medium", 8, 10),
        FieldSizeBucket("large", 11),
    )
    buckets = tuple(_bucket_report(kept, b) for b in buckets if b.contains(kept.field_size).any())
    return AnalysisReport(buckets, table.renormalized)


# --- serialization ---------------------------------------------------------


def _rounded(value: float | None, digits: int) -> float | None:
    return None if value is None else float(f"{value:.{digits}g}")


def report_cells(report: AnalysisReport, digits: int = 6) -> dict[tuple[str, str, str], Cell]:
    """Every bucket's cells with rounded values, keyed (bucket, rank, statistic).

    Both writers read it; ``cells_from_json`` inverts the JSON one.
    """
    return {
        (b.bucket.name, rank, statistic): Cell(
            _rounded(cell.value, digits), _rounded(cell.se, digits), cell.count, cell.note
        )
        for b in report.buckets
        for (rank, statistic), cell in b.cells.items()
    }


def report_to_csv_text(report: AnalysisReport, digits: int = 6) -> str:
    """One row per bucket x rank x statistic; absent cells keep their note."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bucket", "rank", "statistic", "value", "se", "count", "note"])
    for (bucket, rank, statistic), cell in report_cells(report, digits).items():
        value, se = ("" if v is None else f"{v:.{digits}g}" for v in (cell.value, cell.se))
        writer.writerow([bucket, rank, statistic, value, se, cell.count, cell.note])
    return out.getvalue()


def report_to_json_text(report: AnalysisReport, digits: int = 6) -> str:
    """Structured JSON document: ``report_cells`` of each bucket grouped by rank."""
    cells = report_cells(report, digits)
    buckets = []
    for bucket_report in report.buckets:
        bucket = bucket_report.bucket
        ranks: dict[str, dict] = {}
        for rank, statistic in bucket_report.cells:
            ranks.setdefault(rank, {})[statistic] = dataclasses.asdict(cells[bucket.name, rank, statistic])
        buckets.append({
            "name": bucket.name,
            "lo": bucket.lo,
            "hi": bucket.hi,
            "races": bucket_report.races,
            "tie_count": bucket_report.tie_count,
            "field_size_counts": {
                str(n): c for n, c in sorted(bucket_report.histogram.counts.items())
            },
            "ranks": [{"rank": rank, "statistics": statistics}
                      for rank, statistics in ranks.items() if rank != "winner"],
            "winner": ranks["winner"],
        })
    payload = {
        "min_field_size": report.buckets[0].bucket.lo,  # bucket all starts at the cut
        "renormalized": report.renormalized,
        "buckets": buckets,
    }
    return json.dumps(payload, indent=2) + "\n"


def cells_from_json(payload) -> dict[tuple[str, str, str], Cell]:
    """Invert ``report_to_json_text``: the {(bucket, rank, statistic): Cell} map.

    A document that is not a report raises ``ValueError`` naming a field it
    lacks or holds in the wrong shape.
    """

    def field(document, key: str, kind: type = object):
        if not isinstance(document, dict) or key not in document:
            raise ValueError(f"not a report: missing {key!r}")
        if not isinstance(document[key], kind):
            raise ValueError(f"not a report: {key!r} is not a {kind.__name__}")
        return document[key]

    cells: dict[tuple[str, str, str], Cell] = {}
    for bucket in field(payload, "buckets", list):
        name = field(bucket, "name")
        groups = [(field(row, "rank"), field(row, "statistics", dict))
                  for row in field(bucket, "ranks", list)]
        for rank, statistics in groups + [("winner", field(bucket, "winner", dict))]:
            for statistic, raw in statistics.items():
                cells[(name, rank, statistic)] = Cell(
                    field(raw, "value"), field(raw, "se"), field(raw, "count"), raw.get("note", "")
                )
    return cells


def curve_to_csv_text(curve: EccdfCurve, digits: int = 10) -> str:
    """Two-column CSV (x, survival) ready for external plotting.

    One %-format over the interleaved points; ``%.{digits}g`` gives the same
    text as ``format(v, f".{digits}g")`` for every float, inf and nan included.
    """
    points = np.column_stack([curve.x, curve.survival]).ravel().tolist()
    return "x,survival\n" + f"%.{digits}g,%.{digits}g\n" * len(curve) % tuple(points)

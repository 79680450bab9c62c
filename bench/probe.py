"""Set-up probe: a fresh interpreter imports the library and warms it up.

``python -m bench.probe <workload> <scratch-dir>`` imports the modules the
workload uses, makes one small call of the workload's kind, then prints one
JSON line with the import and warm-up times.  The parent process times the
probe from spawn to that line, which is the benchmark's ``setup_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

MODULES = {
    "market-6k": ("brokenstick.cli",),
    "tables-24k": ("brokenstick.racedata", "brokenstick.analysis"),
    "mc-oracle": ("brokenstick.orderstats", "brokenstick.montecarlo"),
    "theory-queries": ("brokenstick.orderstats", "brokenstick.quadrature", "brokenstick.reference"),
}

_TINY_CSV = "race_id,horse_id,decimal_odds,won\n" + "".join(
    f"r{r},h{h},{odds},{int(h == 1)}\n"
    for r in (1, 2)
    for h, odds in enumerate((2.5, 4.0, 6.0, 8.0, 20.0), start=1)
)


def import_modules(workload: str) -> None:
    for name in MODULES[workload]:
        importlib.import_module(name)


def warm_up(workload: str, scratch: Path) -> None:
    """One small call of the workload's kind, so lazy set-up is done."""
    if workload == "market-6k":
        from brokenstick import cli

        races = scratch / "warmup.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                cli.main(["synth", "--races", "24", "--n-min", "5", "--n-max", "16",
                          "--seed", "1", "--output", str(races)]),
                cli.main(["analyze", "--input", str(races), "--output-dir", str(scratch / "warmup")]),
            )
        if codes != (0, 0):
            raise RuntimeError(f"warm-up CLI calls exited {codes}")
    elif workload == "tables-24k":
        from brokenstick import analysis, racedata

        records, _ = racedata.parse_races(_TINY_CSV.encode())
        report = analysis.build_report(racedata.rank_races(records))
        analysis.report_to_csv_text(report)
        analysis.report_to_json_text(report)
    elif workload == "mc-oracle":
        from brokenstick import montecarlo, orderstats

        grid = orderstats.quantile_grid(4, 2, 4)
        config = montecarlo.SimConfig(samples=2_000, seed=0, chunk_size=1_000)
        montecarlo.estimate_ccdf_all_ranks(4, grid, config, workers=2)
    elif workload == "theory-queries":
        from brokenstick import orderstats, quadrature, reference

        orderstats.ccdf_kth_largest(12, 3, 0.05)
        orderstats.ccdf_kth_largest(25, 3, 0.02)
        orderstats.mixture(reference.reference_field_size_histogram(), "mean", k=1)
        quadrature.mean_via_quadrature(5, 2)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, scratch = argv[0], Path(argv[1])
    start = time.perf_counter()
    import_modules(workload)
    imported = time.perf_counter()
    warm_up(workload, scratch)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warmup_s": done - imported}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/prove.py --workload market-6k --seeds 1-10 [--second-seeds 11-20]
                           [--trace 1] [--baseline]

For every metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Every end-to-end
spread, ``setup_s`` included, is compared with a third of the metric's
bound in ``BENCHMARK.json``; with ``--second-seeds`` a second set runs
after the first and each end-to-end median of it must not be worse than
the first set's by more than the bound.  It exits 1 when any of this
fails.  With ``--baseline`` the figures are merged into
``bench/baseline.json``, the record of the commit the runs measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.run import BASELINE, ROOT, WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One run: (its result line, the named figures of its record, wall seconds)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    record = ROOT / ".bench_runs" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    named = json.loads(record.read_text())["named"]
    return json.loads(done.stdout.strip().splitlines()[-1]), named, wall


def run_set(workload: str, seeds: list[int], seconds: int, trace: int):
    """Run one seed set; per metric the median, quartiles and spread, plus run facts."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    named_values: dict[str, list[float]] = {}
    walls, failed = [], 0
    for seed in seeds:
        result, named, wall = run_once(workload, seed, seconds, trace)
        walls.append(wall)
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for name, figure in named.items():
            named_values.setdefault(name, []).append(figure["value"])
            units.setdefault(name, figure["unit"])
        print(f"{workload} seed {seed}: {wall:.1f} s, failed {result['failed']}/{result['attempted']}",
              flush=True)

    def summarise(table):
        out = {}
        for name, vals in table.items():
            q1, median, q3 = quartiles(vals)
            out[name] = {"median": median, "q1": q1, "q3": q3, "unit": units[name], "runs": len(vals),
                         "spread": (q3 - q1) / median if median else 0.0}
        return out

    return summarise(values), summarise(named_values), walls, failed


def worse_by(first: dict, second: dict, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    if not first["median"]:
        return 0.0
    change = (second["median"] - first["median"]) / first["median"]
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--second-seeds", type=seed_list, default=None,
                        help="a second set, run after the first; its medians are compared with the first's")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help=f"merge the figures into {BASELINE.name}")
    args = parser.parse_args(argv)
    gated = {m["name"]: m for m in spec["end_to_end"]}

    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"workloads": {}}
    steady = True
    for workload in args.workload:
        sets = [(args.seeds, run_set(workload, args.seeds, args.seconds, args.trace))]
        if args.second_seeds:
            sets.append((args.second_seeds, run_set(workload, args.second_seeds, args.seconds, args.trace)))
        for index, (seeds, (summary, _, walls, failed)) in enumerate(sets):
            print(f"{workload} set {index + 1}, seeds {seeds[0]}-{seeds[-1]}: wall per run median "
                  f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s; failed ops {failed}")
            steady &= failed == 0
            for name, figure in summary.items():
                note = ""
                if name in gated:
                    bound = gated[name]["bound"]
                    ok = figure["spread"] < bound / 3
                    steady &= ok
                    note = f"third of bound {bound / 3:.3f}  {'ok' if ok else 'WIDE'}"
                    if index:
                        change = worse_by(sets[0][1][0][name], figure, gated[name]["better"])
                        agree = change <= bound
                        steady &= agree
                        note += f"  worse than set 1 by {change:+.3f}  {'ok' if agree else 'DISAGREES'}"
                print(f"  {name:<44} median {figure['median']:<12.6g} q1 {figure['q1']:<12.6g} "
                      f"q3 {figure['q3']:<12.6g} spread {figure['spread']:7.3f}  {note}")
        if args.baseline:
            summary, named, _, _ = sets[0][1]
            entry = baseline["workloads"].setdefault(workload, {})
            key = "end_to_end" if args.trace == 0 else "per_layer"
            entry[key] = summary
            entry[f"named_trace{args.trace}"] = named
            entry[f"seeds_trace{args.trace}"] = args.seeds
            if len(sets) > 1:
                entry[f"{key}_second_set"] = sets[1][1][0]
                entry[f"seeds_trace{args.trace}_second_set"] = args.second_seeds
    if args.baseline:
        baseline["note"] = ("Medians, quartiles and spreads over the seeds listed, one run per seed, "
                            "measured with bench/prove.py on the commit named in facts; a second "
                            "set, where present, was run after the first on the same code.")
        baseline["run_seconds"] = args.seconds
        facts = json.loads((ROOT / ".bench_runs" / "results" /
                            f"{args.workload[-1]}-seed{args.seeds[-1]}-trace{args.trace}.json").read_text())["facts"]
        baseline["facts"] = {k: v for k, v in facts.items() if k != "seed"}
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

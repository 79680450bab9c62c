"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload market-6k --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it benchmarks the library under ``src/``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from a
run that records a span around each call into the library.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record of the run (machine facts, named figures, spans, digests, failures)
goes to ``.bench_runs/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BASELINE = ROOT / "bench" / "baseline.json"
# Set-up probes per run: some before the workload and the rest after it, so
# their median spans the run rather than one moment of it.
SETUP_PROBES = 9
WORKLOADS = ("market-6k", "tables-24k", "mc-oracle", "theory-queries")
# What one latency sample is on each workload, printed beside the latency metrics.
LATENCY_IS = {
    "market-6k": "synth_s + analyze_s of one pass",
    "tables-24k": "analyze_s of one pass",
    "mc-oracle": "oracle_s of one pass",
    "theory-queries": "one query",
}


def setup_probe(workload: str, scratch: Path, env: dict) -> dict:
    """Spawn a fresh interpreter; time it until the library is imported and warm."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.probe", workload, str(scratch)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited {proc.returncode}")
    return {"setup_s": ready, **json.loads(line)}


def source_digest(*trees: Path) -> str:
    """sha256 over the Python files under ``trees``, naming the code that ran."""
    h = hashlib.sha256()
    for tree in trees:
        for path in sorted(tree.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **{lib: metadata.version(lib) for lib in ("numpy", "scipy", "mpmath")},
        "commit": commit,
        "src_sha256": source_digest(SRC),
        "seed": seed,
    }


def reportable(value: float) -> float:
    """A metric value JSON can carry: a non-finite one (a failed check) becomes the largest double."""
    return value if math.isfinite(value) else sys.float_info.max


def compare_with_record(res, workload: str, seed: int, trace: int) -> None:
    """Runs of one seed on the same library and benchmark code must give the same digests."""
    code = source_digest(SRC, ROOT / "bench")[:16]
    path = RUNS / "digests" / f"{workload}-seed{seed}-trace{trace}-{code}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for key, digest in res.digests.items():
        if recorded.setdefault(key, digest) != digest:
            res.fail(f"record/{key}", f"{key} differs from an earlier run of seed {seed}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    tmp.replace(path)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "brokenstick" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'brokenstick'}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))

    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "setup").mkdir(parents=True)
    try:
        probes = [setup_probe(args.workload, workdir / "setup", env) for _ in range(SETUP_PROBES // 2)]

        import brokenstick

        if Path(brokenstick.__file__).resolve().parent != SRC / "brokenstick":
            print(f"error: imported brokenstick from {brokenstick.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from bench import probe, workloads
        from bench.tracing import Tracer

        probe.import_modules(args.workload)
        probe.warm_up(args.workload, workdir / "setup")
        tracer = Tracer() if args.trace else None
        ctx = workloads.Context(args.seed, args.seconds, ROOT, workdir, env, tracer)
        res = workloads.RUNNERS[args.workload](ctx)
        probes += [setup_probe(args.workload, workdir / "setup", env)
                   for _ in range(SETUP_PROBES - len(probes))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(args.seed)
    compare_with_record(res, args.workload, args.seed, args.trace)
    failed = min(len(res.failed_ops), res.attempted)
    res.named["failed_share"] = (failed / max(res.attempted, 1), "share", res.attempted)
    res.layers["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    res.layers["setup.warmup_s"] = statistics.median(p["warmup_s"] for p in probes)

    if args.trace:
        values = {m["name"]: res.layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        if not res.latencies_s:
            print("error: no operation completed; nothing to report", file=sys.stderr)
            for op, messages in list(res.failed_ops.items())[:5]:
                print(f"  {op}: {messages[0]}", file=sys.stderr)
            return 1
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "peak_rss_mb": res.peak_rss_mb,
            "latency_p90_ms": 1e3 * float(np.percentile(res.latencies_s, 90)),
            "latency_p99_ms": 1e3 * float(np.percentile(res.latencies_s, 99)),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": reportable(values[name]), "unit": units[name]} for name in units}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "facts": facts, "metrics": metrics,
        "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in res.named.items()},
        "layers": res.layers, "details": res.details, "setup_probes": probes,
        "latencies_s": res.latencies_s if len(res.latencies_s) <= 100 else None,
        "latency_ms": {f"p{q}": 1e3 * float(np.percentile(res.latencies_s, q)) for q in (10, 25, 50, 75, 90, 99)}
        if res.latencies_s else None,
        "digests": res.digests, "failed_ops": res.failed_ops,
        "spans": tracer.to_json() if tracer else None,
        "span_summary": tracer.summary() if tracer else None,
    }
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    result_path = RUNS / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("facts " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    if not args.trace:
        samples = {"setup_s": f"{len(probes)} set-ups", "peak_rss_mb": "the measuring process"}
        for name, metric in metrics.items():
            what = samples.get(name, f"{len(res.latencies_s)} samples of {LATENCY_IS[args.workload]}")
            print(f"  {name:<22} {metric['value']:<14.6g} {metric['unit']:<6} ({what})")
    for name, (value, unit, count) in sorted(res.named.items()):
        print(f"  {name:<22} {value:<14.6g} {unit:<6} (samples {count})")
    baseline = json.loads(BASELINE.read_text())["workloads"].get(args.workload, {}) if BASELINE.exists() else {}
    for name, figure in baseline.get("per_layer" if args.trace else "end_to_end", {}).items():
        if not (figure["median"] or figure["q1"] or figure["q3"]):
            continue  # a layer this workload does not exercise
        print(f"  baseline {name:<40} median {figure['median']:<12.6g} "
              f"q1 {figure['q1']:<12.6g} q3 {figure['q3']:<12.6g} {figure['unit']}")
    for op, messages in list(res.failed_ops.items())[:10]:
        print(f"  FAILED {op}: {messages[0].strip().splitlines()[-1]}")
    print(f"record {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": res.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

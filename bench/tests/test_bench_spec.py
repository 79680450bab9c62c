"""BENCHMARK.json stays within its schema, and every per-layer metric has a target."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert metric["better"] in ("higher", "lower") and UNIT.fullmatch(metric["unit"])
    assert all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names))


def test_workload_names_agree():
    from bench import prove, run, workloads

    assert run.WORKLOADS == prove.WORKLOADS == tuple(workloads.RUNNERS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_every_per_layer_metric_names_what_it_should_move():
    from bench import workloads

    layers = json.loads((ROOT / "bench" / "layers.json").read_text())["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    runnable = set(workloads.RUNNERS)
    gated = {m["name"] for m in SPEC["end_to_end"]}
    for target in layers.values():
        assert set(target["workloads"]) <= runnable
        assert target["gated_as"] is None or target["gated_as"] in gated

"""Smoke test of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload once untraced and once traced for a short time,
checks that every metric named in BENCHMARK.json is printed with its
unit, and that a corrupted golden value is reported as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT = 180


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT)


# Calls per operation in one traced round, as the code makes them.
EXPECTED_CALLS = {
    "rhombus": {
        # 6283 rk4 steps; 630 fits in saari_check; 1001 + 1 witness in verify_counterexample
        ("simulate_s", "dynamics.integrate"): 1,
        ("saari_s", "saari.rigid_fit"): 630,
        ("theorem2_s", "saari.rigid_fit"): 1002,
    },
    "nbody": {
        # velocity Verlet: one kernel call to start, then one per step
        ("nbody_newtonian_n100_s", "core._gradient_rows"): 151,
        ("nbody_newtonian_n300_s", "core._gradient_rows"): 41,
        ("nbody_newtonian_n300_s", "core.mutual_distances"): 1,
    },
    "cc_search": {
        # every pair of 64 and of 128 family samples
        ("theorem1_s", "saari.rigid_fit"): 64 * 63 // 2,
        ("family_s", "saari.rigid_fit"): 128 * 127 // 2,
        ("refine_s_per_solution", "central_config.refine_cc"): 15,
    },
}
EXPECTED_METRICS = {
    "rhombus": {"dynamics.steps": 3 * 6283, "cli.csv_rows": 631, "cli.main.calls": 3},
    "nbody": {"dynamics.steps": 150 + 40 + 40, "core._gradient_rows.calls": 151 + 41},
    "cc_search": {"central_config.refine.attempts": 15, "dynamics.steps": 0},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    seed = 3
    proc = run_bench("--workload", workload, "--seed", seed, "--seconds", 1, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
        if trace == 0:
            assert metric["value"] > 0.0, m["name"]
    assert "error_ratio = 0 " in proc.stdout
    if trace == 1:
        for name, value in EXPECTED_METRICS[workload].items():
            assert result["metrics"][name]["value"] == value, name
        record = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace1.json"
        by_op = json.loads(record.read_text(encoding="utf-8"))["calls_by_operation"]
        for (op, function), calls in EXPECTED_CALLS[workload].items():
            assert by_op[op].get(function, 0) == calls, (op, function)


def test_layer_map_names_every_per_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    for layer in layers:
        assert set(layer["moves"]) | set(layer.get("unchanged", {})) <= workloads


def test_corrupted_golden_hash_is_a_reported_failure(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
        rhombus = workloads.Rhombus(ROOT, tmp_path, seed=0)
        rhombus.golden["rhombus_csv_sha256"] = "0" * 64
        results = rhombus.run_round()
    finally:
        del sys.path[:2]
    failures = {name: failed for name, _, _, failed in results}
    assert failures == {"simulate_s": 1, "saari_s": 0, "theorem2_s": 0}


def test_seed_must_be_an_integer():
    proc = run_bench("--workload", "rhombus", "--seed", "1.5", "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert "seed must be a non-negative integer" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "rhombus", "--seed", 1, "--seconds", 1, "--trace", 0,
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

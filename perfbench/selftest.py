"""Self-tests of the benchmark, kept out of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from stabkit import decoders, montecarlo  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Small enough for seconds per test; the threshold scan needs ~100 trials a
# point before its curves reliably cross.
TINY_TRIALS = {"lookup_small": 50, "mwpm_subthreshold": 20, "mwpm_threshold": 100}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], trials=TINY_TRIALS[name])


def test_benchmark_json_matches_workloads_and_names():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_smoke(name):
    wl = tiny(name)
    run = workloads.run_end_to_end(wl, seed=3, seconds=0)
    assert run["batches"] == 1 and run["failed"] == 0 and run["problems"] == []
    assert run["attempted"] == workloads.PASSES * wl.call_trials
    assert run["trials_per_s"] > 0 and run["setup_s"] > 0 and run["peak_rss_mb"] > 0
    assert 0 < run["decoded_share"] <= 1
    assert gates.rate_problems(name, run["totals"], gates.load_reference()) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke(name):
    traced = layers.run_traced(tiny(name), seed=3, seconds=0)
    assert traced["problems"] == []
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert all(METRIC_NAME.fullmatch(n) for n in traced["metrics"])
    assert gates.rate_problems(name, traced["totals"], gates.load_reference()) == []


def test_command_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup_small",
         "--seed", "5", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "-B", "perfbench/run.py", "--workload", "lookup_small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def _lookup_totals(trials: int, p: float) -> dict:
    wl = workloads.WORKLOADS["lookup_small"]
    (code, decoder), = workloads.setup(wl)
    pt = montecarlo.sweep(code, decoder, wl.noise_kind, [p], trials, 11).points[0]
    return {(code.name, p): [pt.trials, pt.failures, pt.decoder_failures]}


def test_lookup_gate_rejects_wrong_enumerator():
    reference = gates.load_reference()
    totals = _lookup_totals(4000, 0.10)
    assert gates.rate_problems("lookup_small", totals, reference) == []
    wrong = reference["lookup_small"]["failing_weight_enumerator"]
    reference["lookup_small"]["failing_weight_enumerator"] = [a * 3 // 2 for a in wrong]
    assert gates.rate_problems("lookup_small", totals, reference)


def test_mwpm_gate_rejects_wrong_reference():
    reference = gates.load_reference()
    code = workloads.build_code("surface_d3")
    decoder = workloads.build_decoder("mwpm", code)
    pt = montecarlo.sweep(code, decoder, "iid_xz", [0.10], 4000, 11).points[0]
    totals = {("surface_d3", 0.10): [pt.trials, pt.failures, pt.decoder_failures]}
    assert gates.rate_problems("mwpm_threshold", totals, reference) == []
    point = reference["mwpm_threshold"]["points"]["surface_d3"]["0.1"]
    point["failures"] //= 2
    assert gates.rate_problems("mwpm_threshold", totals, reference)


def test_stored_enumerator_matches_fresh_enumeration():
    (code, decoder), = workloads.setup(workloads.WORKLOADS["lookup_small"])
    stored = gates.load_reference()["lookup_small"]["failing_weight_enumerator"]
    assert gates.failing_weight_enumerator(code, decoder) == stored


def test_brute_force_matcher_agrees_with_package_matcher():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(0, gates.BRUTE_FORCE_MAX_DEFECTS)
        boundary = [rng.randint(1, 4) for _ in range(k)]
        dist = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                dist[i][j] = dist[j][i] = rng.randint(1, 6)
        cost, _ = decoders.minimum_weight_matching(dist, boundary)
        assert gates.brute_force_matching(dist, boundary) == cost


def test_largest_component_applies_pruning_rule():
    problem = decoders.MatchingProblem(
        sector="X",
        defects=(("A1", (0, 1)), ("A2", (0, 3)), ("A3", (4, 1))),
        boundary_costs=(1, 1, 1),
        pair_costs=((0, 1, 2), (1, 0, 3), (2, 3, 0)),
    )
    # 1 < 1 + 1 keeps A1-A2; 2 and 3 are not below 2, so A3 stands alone.
    assert gates.largest_component(problem) == 2

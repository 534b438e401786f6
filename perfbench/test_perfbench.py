"""The benchmark's own tests: smoke runs, count repeatability, tampering.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload, trace):
    result, text = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        assert any(line.lstrip().startswith(f"{metric['name']} = ")
                   and f" {metric['unit']}" in line for line in text)


def test_traced_counts_repeat_for_the_same_seed():
    deterministic = ("rk45.n_fev", "rk45.n_steps", "expressions.evaluate.calls",
                     "orbits.distinct", "runner.artifact_bytes")
    first, _ = bench("torus-fan", 1)
    second, _ = bench("torus-fan", 1)
    for name in deterministic:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name] == second["metrics"][name]


def test_deck_is_a_function_of_the_seed():
    for workload in WORKLOADS:
        a = [e["id"] for e in workloads.deck(workload, 7)]
        assert a == [e["id"] for e in workloads.deck(workload, 7)]
        assert a != [e["id"] for e in workloads.deck(workload, 8)]
        assert sorted(a) == sorted(e["id"]
                                   for e in workloads.catalogue(workload))


def test_every_scenario_has_a_reference():
    golden = json.loads((HERE / "golden.json").read_text())
    for key, smoke in (("workloads", False), ("smoke", True)):
        for workload in WORKLOADS:
            ids = {e["id"] for e in workloads.catalogue(workload, smoke)}
            assert ids == set(golden[key][workload])


@pytest.fixture(scope="module")
def torus_report(tmp_path_factory):
    from bcontactlab.cli import main

    (entry,) = workloads.catalogue("torus-fan", smoke=True)
    tmp = tmp_path_factory.mktemp("tamper")
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(entry["scenario"]))
    status = main(["all", "--scenario", str(scenario), "--out",
                   str(tmp / "out"), *entry["args"]])
    report = json.loads((tmp / "out" / "report.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    return report, status, golden["smoke"]["torus-fan"][entry["id"]]


def _flip_check(r):
    r["checks"][0]["passed"] = not r["checks"][0]["passed"]


def _drop_orbit_end(r):
    r["orbits"][0]["near_end"]["verdict"] = "undecided"


def _census_count(r):
    r["census"]["n_distinct"] += 1


def _critical_index(r):
    r["critical_points"][0]["index"] = 2 - r["critical_points"][0]["index"]


@pytest.mark.parametrize("tamper", [_flip_check, _drop_orbit_end,
                                    _census_count, _critical_index])
def test_tampered_report_fails_the_fingerprint(torus_report, tamper):
    report, status, reference = torus_report
    assert workloads.fingerprint(report, status) == reference["fingerprint"]
    tampered = copy.deepcopy(report)
    tamper(tampered)
    assert workloads.fingerprint(tampered, status) != reference["fingerprint"]
    assert workloads.fingerprint(report, 2) != reference["fingerprint"]

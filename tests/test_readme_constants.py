"""README's "Tuning constants" table matches the modules it names, and a
patched constant reaches every call that leaves its parameter out."""
import importlib
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from bcontactlab import contact, critical, orbits
from bcontactlab.contact import (BReebField, exceptional_hamiltonian,
                                 solve_reeb, verify_hamiltonian_identity)
from bcontactlab.critical import find_critical_points, stability_at
from bcontactlab.orbits import (detect_limit, refinement_check, seed_plan,
                                trace_invariant_manifolds)
from bcontactlab.runner import run
from bcontactlab.scenarios import load_scenario, scenario_form

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|")


def test_every_tabled_constant_has_its_module_value():
    section = README.read_text().split("\n## Tuning constants\n", 1)[1]
    lines = [line for line in section.split("\n## ", 1)[0].splitlines()
             if line.startswith("| `")]
    rows = [ROW.match(line) for line in lines]
    assert len(rows) >= 40 and all(rows), lines
    assert len({row.group(1, 2) for row in rows}) == len(rows)
    for row in rows:
        name, module, value = row.groups()
        actual = getattr(importlib.import_module(f"bcontactlab.{module}"),
                         name)
        assert actual == eval(value, {"__builtins__": {}}), (module, name)


def _setup(name):
    tub, form = scenario_form(load_scenario(name))
    zdata = exceptional_hamiltonian(form, tub)
    reeb = BReebField(form, tub)
    reports = [stability_at(p, reeb, zdata)
               for p in find_critical_points(zdata, tub)]
    return SimpleNamespace(tub=tub, form=form, zdata=zdata, reeb=reeb,
                           reports=reports,
                           saddles=[r for r in reports
                                    if r.kind == "hyperbolic-2d-transverse"])


@pytest.fixture(scope="module")
def builtin():
    return {name: _setup(name) for name in ("sphere", "torus")}


def _residual_thresholds(b, out, monkeypatch):
    s = b["sphere"]
    return [r.threshold for r in solve_reeb(s.form, s.tub, (8, 8, 3))[1][1:]]


def _identity_threshold(b, out, monkeypatch):
    s = b["sphere"]
    return verify_hamiltonian_identity(s.form, s.tub, (8, 8)).threshold


def _validate_thresholds(b, out, monkeypatch):
    return [c["threshold"] for c in run("sphere", "validate", out).report[
        "checks"][1:]]


def _beltrami_identity_passes(b, out, monkeypatch):
    # its residual is 0.0, which passes any threshold but 0
    return run("beltrami", "beltrami", out).report["identity"]["passed"]


def _newton_tols(b, out, monkeypatch):
    tols = set()
    refine = critical._newton_refine

    def spy(zdata, chart, u0, v0, tol):
        tols.add(tol)
        return refine(zdata, chart, u0, v0, tol)

    with monkeypatch.context() as patch:
        patch.setattr(critical, "_newton_refine", spy)
        find_critical_points(b["sphere"].zdata, b["sphere"].tub)
    return tols


def _limit_verdict(b, out, monkeypatch):
    s = b["sphere"]
    orbit = trace_invariant_manifolds(s.reeb, s.reports[:1], s.tub)[0]
    return detect_limit(orbit.toward, [r.point for r in s.reports],
                        s.tub).verdict


def _traced_verdicts(b, out, monkeypatch):
    s = b["sphere"]
    return {o.near_end.verdict
            for o in trace_invariant_manifolds(s.reeb, s.reports, s.tub)}


def _refined_verdicts(b, out, monkeypatch):
    s = b["sphere"]
    res = refinement_check(s.reeb, s.reports, s.tub)
    return {o.near_end.verdict for o in res["coarse"] + res["fine"]}


def _planned_fans(b, out, monkeypatch):
    return {len(seed_plan(r)) for r in b["torus"].saddles}


def _traced_fans(b, out, monkeypatch):
    t = b["torus"]
    traced = trace_invariant_manifolds(t.reeb, t.saddles, t.tub)
    return {sum(o.point is r.point for o in traced) for r in t.saddles}


@pytest.mark.parametrize("module, name, value, probe, seen", [
    (contact, "RESIDUAL_TOL", 1e-3, _residual_thresholds, [1e-3, 1e-3]),
    (contact, "RESIDUAL_TOL", 1e-3, _identity_threshold, 1e-3),
    (contact, "RESIDUAL_TOL", 1e-3, _validate_thresholds, [1e-3, 1e-3]),
    (contact, "RESIDUAL_TOL", 0.0, _beltrami_identity_passes, False),
    (critical, "NEWTON_TOL", 1e-9, _newton_tols, {1e-9}),
    (orbits, "POSITION_TOL", 0.0, _limit_verdict, "undecided"),
    (orbits, "POSITION_TOL", 0.0, _traced_verdicts, {"undecided"}),
    (orbits, "POSITION_TOL", 0.0, _refined_verdicts, {"undecided"}),
    (orbits, "N_FAN", 2, _planned_fans, {2}),
    (orbits, "N_FAN", 2, _traced_fans, {2}),
], ids=["solve_reeb", "verify_hamiltonian_identity", "runner-validate",
        "runner-beltrami", "find_critical_points", "detect_limit",
        "trace_invariant_manifolds-tol", "refinement_check", "seed_plan",
        "trace_invariant_manifolds-n_fan"])
def test_a_patched_constant_reaches_a_call_that_leaves_it_out(
        builtin, tmp_path, monkeypatch, module, name, value, probe, seen):
    assert probe(builtin, tmp_path / "default", monkeypatch) != seen
    monkeypatch.setattr(module, name, value)
    assert probe(builtin, tmp_path / "patched", monkeypatch) == seen

"""README's "Tuning constants" table matches the modules it names, a
patched constant reaches every call that reads it, no tolerance parameter
has a literal default, and no public function takes a threshold."""
import ast
import importlib
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.integrate

from bcontactlab import contact, critical, mcgehee, orbits, rk45
from bcontactlab.beltrami import BeltramiData, hamiltonian_identity_check
from bcontactlab.contact import (BReebField, exceptional_hamiltonian,
                                 solve_reeb, verify_hamiltonian_identity)
from bcontactlab.critical import find_critical_points, stability_at
from bcontactlab.mcgehee import (McGeheeParams, McGeheeState,
                                 integrate_mcgehee, newtonian_oracle_compare)
from bcontactlab.orbits import (detect_limit, refinement_check, seed_plan,
                                trace_invariant_manifolds)
from bcontactlab.runner import run
from bcontactlab.scenarios import load_scenario, scenario_form

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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
    form = scenario_form(load_scenario(name))
    zdata = exceptional_hamiltonian(form)
    reeb = BReebField(form)
    reports = [stability_at(p, reeb)
               for p in find_critical_points(zdata)]
    return SimpleNamespace(tub=form.atlas, form=form, zdata=zdata, reeb=reeb,
                           reports=reports,
                           saddles=[r for r in reports
                                    if r.kind == "hyperbolic-2d-transverse"])


@pytest.fixture(scope="module")
def builtin():
    return {name: _setup(name) for name in ("sphere", "torus")}


def _residual_thresholds(b, out, monkeypatch):
    s = b["sphere"]
    return [r.threshold for r in solve_reeb(s.form, (8, 8, 3))[1][1:]]


def _identity_threshold(b, out, monkeypatch):
    s = b["sphere"]
    return verify_hamiltonian_identity(s.form, (8, 8)).threshold


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
        find_critical_points(b["sphere"].zdata)
    return tols


def _limit_verdict(b, out, monkeypatch):
    s = b["sphere"]
    orbit = trace_invariant_manifolds(s.reeb, s.reports[:1])[0]
    return detect_limit(orbit.toward, [r.point for r in s.reports],
                        s.tub).verdict


def _traced_verdicts(b, out, monkeypatch):
    s = b["sphere"]
    return {o.near_end.verdict
            for o in trace_invariant_manifolds(s.reeb, s.reports)}


def _refined_verdicts(b, out, monkeypatch):
    s = b["sphere"]
    res = refinement_check(s.reeb, s.reports)
    return {o.near_end.verdict for o in res["coarse"] + res["fine"]}


def _rk45_rtols(monkeypatch, call):
    """The relative tolerances every RK45 integration of ``call`` ran at,
    on lanes or on one state."""
    rtols = set()

    def spy(inner):
        def run(f, y0, t_span, rtol, *rest):
            rtols.add(float(rtol))
            return inner(f, y0, t_span, rtol, *rest)
        return run

    with monkeypatch.context() as patch:
        for name in ("_integrate", "_integrate_one"):
            patch.setattr(rk45, name, spy(getattr(rk45, name)))
        call()
    return rtols


def _traced_rtols(b, out, monkeypatch):
    s = b["sphere"]
    return _rk45_rtols(monkeypatch, lambda: trace_invariant_manifolds(
        s.reeb, s.reports))


def _refined_rtols(b, out, monkeypatch):
    s = b["sphere"]
    return _rk45_rtols(monkeypatch, lambda: refinement_check(
        s.reeb, s.reports))


THREE_BODY = (McGeheeState(0.2, 0.0, 0.0, math.sqrt(50.0)),
              McGeheeParams(0.5))


def _three_body_rtols(b, out, monkeypatch):
    return _rk45_rtols(monkeypatch, lambda: integrate_mcgehee(
        *THREE_BODY, t_span=(0.0, 1.0)))


def _dop853_rtols(b, out, monkeypatch):
    rtols = set()
    inner = scipy.integrate.solve_ivp

    def spy(*args, **kwargs):
        rtols.add(kwargs["rtol"])
        return inner(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(scipy.integrate, "solve_ivp", spy)
        newtonian_oracle_compare(integrate_mcgehee(
            *THREE_BODY, t_span=(0.0, 1.0)), THREE_BODY[1], 1.0)
    return rtols


def _sweep_grids(b, out, monkeypatch):
    return [c.details["grid"] for c in solve_reeb(b["sphere"].form)[1]]


def _runner_grids(b, out, monkeypatch):
    return [c["details"]["grid"] for c in run("sphere", "validate", out)
            .report["checks"]]


def _beltrami_points(b, out, monkeypatch):
    return hamiltonian_identity_check(BeltramiData("cos(u)")).n_points


def _planned_fans(b, out, monkeypatch):
    return {len(seed_plan(r)) for r in b["torus"].saddles}


def _traced_fans(b, out, monkeypatch):
    t = b["torus"]
    traced = trace_invariant_manifolds(t.reeb, t.saddles)
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
    (contact, "VALIDATION_GRID", (8, 8, 3), _sweep_grids,
     [[8, 8, 3], [8, 8, 3], [8, 8]]),
    (contact, "VALIDATION_GRID", (8, 8, 3), _runner_grids,
     [[8, 8, 3], [8, 8, 3], [8, 8]]),
    (contact, "VALIDATION_GRID", (8, 8, 3), _beltrami_points, 64),
    (orbits, "N_FAN", 2, _planned_fans, {2}),
    (orbits, "N_FAN", 2, _traced_fans, {2}),
    (rk45, "RTOL", 1e-9, _traced_rtols, {1e-9}),
    (rk45, "RTOL", 1e-9, _three_body_rtols, {1e-9}),
    (rk45, "RTOL", 2e-10, _refined_rtols,
     {2e-10, 2e-10 / orbits.REFINEMENT_FACTOR}),
    (mcgehee, "ORACLE_RTOL", 1e-11, _dop853_rtols, {1e-11}),
], ids=["solve_reeb", "verify_hamiltonian_identity", "runner-validate",
        "runner-beltrami", "find_critical_points", "detect_limit",
        "trace_invariant_manifolds-tol", "refinement_check",
        "solve_reeb-grid", "runner-validate-grid",
        "hamiltonian_identity_check-grid", "seed_plan",
        "trace_invariant_manifolds-n_fan", "trace_invariant_manifolds-rtol",
        "integrate_mcgehee-rtol", "refinement_check-rtol",
        "newtonian_oracle_compare-solve_ivp"])
def test_a_patched_constant_reaches_a_call_that_leaves_it_out(
        builtin, tmp_path, monkeypatch, module, name, value, probe, seen):
    assert probe(builtin, tmp_path / "default", monkeypatch) != seen
    monkeypatch.setattr(module, name, value)
    assert probe(builtin, tmp_path / "patched", monkeypatch) == seen


def _literal_tolerance_defaults(source):
    """``name`` of each parameter in ``source`` that ends in ``tol``, or is
    ``threshold``, ``n_fan`` or ``grid``, with a default other than None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = [*zip(positional[len(positional) - len(args.defaults):],
                          args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in defaulted:
            if default is None:   # a keyword-only parameter without one
                continue
            tuned = arg.arg.endswith("tol") or arg.arg in ("threshold",
                                                           "n_fan", "grid")
            if tuned and not (isinstance(default, ast.Constant)
                              and default.value is None):
                found.append(arg.arg)
    return found


THRESHOLDS = ("tol", "newton_tol", "threshold")


def _threshold_parameters(source):
    """``function(name)`` for each parameter of a public function in
    ``source`` whose name is in ``THRESHOLDS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            args = node.args
            found += [f"{node.name}({arg.arg})"
                      for arg in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs)
                      if arg.arg in THRESHOLDS]
    return found


def test_the_ast_walk_finds_a_literal_tolerance_default():
    source = ("def f(a, rtol=1e-10, *, tol=None, threshold=0.1):\n"
              "    return lambda n_fan=16, atol=None: None\n"
              "def _g(newton_tol, grid=(64, 64)):\n"
              "    def h(newton_tol, /): pass\n")
    assert sorted(_literal_tolerance_defaults(source)) == [
        "grid", "n_fan", "rtol", "threshold"]
    assert sorted(_threshold_parameters(source)) == [
        "f(threshold)", "f(tol)", "h(newton_tol)"]


def _src_files():
    return sorted((ROOT / "src" / "bcontactlab").glob("*.py"))


def test_no_tolerance_parameter_has_a_literal_default():
    """README's rule: a tolerance, threshold, fan size or validation grid
    that a function takes defaults to None and reads its module constant
    when it runs."""
    found = {path.name: names for path in _src_files()
             if (names := _literal_tolerance_defaults(path.read_text()))}
    assert found == {}


def test_no_public_function_takes_a_threshold():
    """A pass/fail threshold is its module constant alone: no public
    function takes one, so no caller and no CLI option can move it."""
    found = {path.name: names for path in _src_files()
             if (names := _threshold_parameters(path.read_text()))}
    assert found == {}

"""Scenario pipelines and artifact emission.

Each pipeline stage returns a plain-dict report fragment; :func:`run`
assembles them, decides an overall verdict, and writes the artifacts:

``report.json``
    Every fragment plus the verdict, serialized with sorted keys.  All
    wall-clock measurements live under the single top-level key
    ``"timing"``, so two runs of an unchanged scenario produce reports
    that are byte-identical once that subtree is dropped.  One rule
    (:func:`_reported`) turns a stage's result dataclasses into report
    data: every field is reported under its own name, except those
    declared ``field(metadata={"report": False})`` (the arrays); complex
    numbers become ``[real, imag]`` and tuples lists.
``census.csv``
    One row per critical point with its orbit tally (``census`` stage).
``orbit_NNN.csv``
    One file per traced orbit, columns ``t,u,v,s,z,side``.  Time runs
    monotonically through the seed; ``side`` is the sign of z and ``s``
    is log|z|.
``trajectory.csv``
    The inverted-radius run, columns ``t,x,a,Pr,Pa,H``.

Stages raise; :func:`run` converts the failure into an ``error`` block,
keeps whatever artifacts exist, and reports exit status 1.  Verdict
failures (checks that ran and came out false) exit with status 2; a
degenerate Reeb system is one, and the stages after validation are then
listed under ``"skipped"`` with the reason.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from .beltrami import (BeltramiData, beltrami_stability_matrix,
                       contact_from_beltrami, hamiltonian_identity_check,
                       laplace_eigen_check)
from .charts import TubularChart
# perfbench/tracer.py wraps all four validation entry points by these names
from .contact import (contact_check, exceptional_hamiltonian,  # noqa: F401
                      reeb_residual_report, solve_reeb,
                      verify_hamiltonian_identity)
from .critical import census_bound, find_critical_points, stability_at
from .mcgehee import (McGeheeParams, McGeheeState, integrate_mcgehee,
                      newtonian_oracle_compare)
from .orbits import escape_census, trace_invariant_manifolds
from .scenarios import Scenario, load_scenario, scenario_form

__all__ = ["run", "RunResult", "default_out_dir", "write_report"]

RESIDUAL_TOL = 1e-9
DRIFT_TOL = 1e-8
ORACLE_TOL = 1e-6
PERIODICITY_TOL = 1e-8


class RunResult:
    """Pipeline outcome: the report dict, artifact paths, and exit status."""

    def __init__(self, report, out_dir, artifacts, exit_status):
        self.report = report
        self.out_dir = out_dir
        self.artifacts = artifacts
        self.exit_status = exit_status

    @property
    def passed(self):
        return self.exit_status == 0


def default_out_dir(scenario):
    return Path("runs") / scenario.name


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


@functools.cache
def _report_fields(cls):
    """Names of the reported fields of a dataclass type, None otherwise."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls)
                 if f.metadata.get("report", True))


def _reported(obj):
    """Report data for a stage result: a dataclass becomes a dict of its
    fields minus those declared ``field(metadata={"report": False})``, a
    complex number ``[real, imag]`` and a tuple a list; dicts and lists are
    converted inside, and anything else passes through unchanged."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj  # the common leaves, before the dataclass lookup
    names = _report_fields(type(obj))
    if names is not None:
        return {name: _reported(getattr(obj, name)) for name in names}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _reported(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reported(v) for v in obj]
    return obj


def _scrub(obj):
    """Replace non-finite floats (json rejects them) before serializing."""
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_report(report, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    payload = json.dumps(_scrub(report), indent=2, sort_keys=True,
                         default=_jsonable, allow_nan=False)
    path.write_text(payload + "\n")
    return path


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header, rows):
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


# ---------------------------------------------------------------------------
# bcontact stages

def _census_components(tub):
    kind = "sphere" if tub.kind == "sphere-atlas" else tub.kind
    return [{"kind": kind, "charts": sorted(tub.charts)}]


def _stage_validate(form, tub, grid, tol):
    reeb, checks = solve_reeb(form, tub, grid,
                              RESIDUAL_TOL if tol is None else tol)
    fragment = {"checks": _reported(checks)}
    failures = [c.check for c in checks if not c.passed]
    return fragment, failures, reeb


def _stage_critical(form, tub, reeb, tol):
    zdata = exceptional_hamiltonian(form, tub)
    kwargs = {} if tol is None else {"newton_tol": tol}
    warnings = []
    points = find_critical_points(zdata, tub, warnings=warnings, **kwargs)
    reports = [stability_at(p, reeb, zdata) for p in points]
    bound = census_bound(points, _census_components(tub))
    fragment = {
        "critical_points": _reported(points),
        "stability": _reported(reports),
        "bound": _reported(bound),
        "scan_warnings": list(warnings),
    }
    return fragment, [], (zdata, points, reports, bound)


def _stage_trace(reeb, reports, tub, seeds, tol):
    kwargs = {}
    if seeds is not None:
        kwargs["n_fan"] = seeds
    if tol is not None:
        kwargs["tol"] = tol
    orbits = trace_invariant_manifolds(reeb, reports, tub, **kwargs)
    fragment = {"orbits": _reported(orbits)}
    failures = []
    bad = sum(1 for o in orbits if o.near_end.verdict == "integration-failed")
    if bad:
        failures.append(f"integration-failed x{bad}")
    return fragment, failures, orbits


def _stage_census(orbits, bound, tub):
    census = escape_census(orbits, bound, tub)
    fragment = {"census": _reported(census)}
    failures = [] if census.consistent_with_bound else ["census-vs-bound"]
    return fragment, failures, census


def _orbit_rows(orbit):
    """Merge the two traces into one time-ordered pass through the seed."""
    rows = []
    for trace, flip in ((orbit.away, True), (orbit.toward, False)):
        t = trace.direction * trace.t
        if flip:
            t = -t
        order = range(len(t) - 1, 0, -1) if flip else range(len(t))
        for i in order:
            u, v, s = (float(c) for c in trace.y[i])
            rows.append((float(t[i]), u, v, s, trace.sigma * math.exp(s),
                         trace.sigma))
    return rows


def _write_orbit_files(orbits, out_dir):
    paths = []
    for k, orbit in enumerate(orbits):
        if orbit.toward is None:
            continue
        path = Path(out_dir) / f"orbit_{k:03d}.csv"
        paths.append(_write_csv(path, "t,u,v,s,z,side", _orbit_rows(orbit)))
    return paths


def _write_census_file(census, out_dir):
    rows = [(d["chart"], d["u"], d["v"], d["index"], d["n_orbits"],
             "|".join(str(w) for w in d["weights"]))
            for d in census.per_point]
    return _write_csv(Path(out_dir) / "census.csv",
                      "chart,u,v,index,n_orbits,weights", rows)


# ---------------------------------------------------------------------------
# beltrami / mcgehee pipelines

def _run_beltrami(scenario, grid, tol):
    threshold = RESIDUAL_TOL if tol is None else tol
    data = BeltramiData.from_scenario(scenario.data)
    surface_grid = tuple(grid[:2])
    identity = hamiltonian_identity_check(data, grid=surface_grid,
                                          threshold=max(threshold, 1e-12))
    laplace = laplace_eigen_check(data, grid=surface_grid)
    form, roundtrip = contact_from_beltrami(data, grid=grid)
    tub = TubularChart.torus()
    zdata = exceptional_hamiltonian(form, tub)
    points = find_critical_points(zdata, tub)
    stagnation = [beltrami_stability_matrix(data, point=(p.u, p.v))
                  for p in points]
    fragment = {
        "identity": _reported(identity),
        "laplace": _reported(laplace),
        "roundtrip": _scrub(dict(roundtrip)),
        "stagnation": _reported(stagnation),
    }
    failures = []
    if not identity.passed:
        failures.append("hamiltonian-identity")
    if laplace.verdict != "eigenfunction":
        failures.append("laplace-eigenfunction")
    if not roundtrip["stream_recovered"]:
        failures.append("stream-roundtrip")
    if not roundtrip["contact_passed"]:
        failures.append("contact-condition")
    return fragment, failures, []


def _run_mcgehee(scenario, out_dir, tol):
    drift_tol = DRIFT_TOL if tol is None else tol
    params = McGeheeParams(float(scenario.option("mu")))
    state0 = McGeheeState(float(scenario.option("x0", 0.2)),
                          float(scenario.option("a0", 0.0)),
                          float(scenario.option("pr0", 0.0)),
                          float(scenario.option("pa0", 0.0)))
    t_end = float(scenario.option("t_end", 100.0))
    traj = integrate_mcgehee(state0, params, t_span=(0.0, t_end))

    checks = {"energy_drift": {"value": traj.energy_drift,
                               "threshold": drift_tol,
                               "passed": traj.energy_drift < drift_tol}}
    if state0.x == 0.0:
        period = integrate_mcgehee(state0, params, t_span=(0.0, 2 * math.pi))
        wrapped = period.y[-1].copy()
        wrapped[1] = math.remainder(wrapped[1] - state0.a, 2 * math.pi)
        gap = float(np.abs(wrapped - np.array(
            [state0.x, 0.0, state0.pr, state0.pa])).max())
        checks["periodicity"] = {
            "value": gap, "threshold": PERIODICITY_TOL,
            "passed": gap < PERIODICITY_TOL,
            "x_stays_zero": bool(np.all(period.y[:, 0] == 0.0)),
        }
        if not checks["periodicity"]["x_stays_zero"]:
            checks["periodicity"]["passed"] = False
    else:
        oracle = newtonian_oracle_compare(state0, params,
                                          t_span=(0.0, min(10.0, t_end)))
        checks["oracle"] = {
            "value": oracle["max_deviation"], "threshold": ORACLE_TOL,
            "passed": oracle["max_deviation"] < ORACLE_TOL,
            "per_component": oracle["per_component"],
            "n_samples": oracle["n_samples"],
        }

    fragment = {
        "mu": params.mu,
        "state0": list(state0.as_array()),
        "t_end": t_end,
        "integrator": traj.stats,
        "checks": checks,
    }
    failures = [name for name, c in checks.items() if not c["passed"]]
    rows = [(float(t), *[float(c) for c in y], float(h))
            for t, y, h in zip(traj.t, traj.y, traj.energy)]
    artifacts = [_write_csv(Path(out_dir) / "trajectory.csv",
                            "t,x,a,Pr,Pa,H", rows)]
    return fragment, failures, artifacts


# ---------------------------------------------------------------------------
# orchestration

_BCONTACT_STAGES = ("validate", "critical", "trace", "census")


def run(source, subcommand="all", out_dir=None, *, tol=None, grid=None,
        seeds=None):
    """Execute ``subcommand`` for a scenario (path, name, or Scenario).

    Returns a :class:`RunResult` whose ``exit_status`` is 0 when every
    check passed, 2 when one came out false, and 1 when a stage raised.
    ``report.json`` is written in all three cases.  A ``tol`` that is not
    finite and positive, or ``seeds`` below 1, raises ``ValueError`` before
    anything is written, as a bad scenario raises ``ScenarioError``.
    """
    if seeds is not None and seeds < 1:
        raise ValueError("seeds must be at least 1")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    t_start = time.perf_counter()
    timing = {}
    scenario = (source if isinstance(source, Scenario)
                else load_scenario(source))
    out_dir = Path(out_dir) if out_dir is not None else default_out_dir(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid3 = tuple(grid) if grid is not None else (64, 64, 9)
    if len(grid3) == 2:
        grid3 = (*grid3, 9)

    report = {
        "scenario": {"origin": scenario.origin, **scenario.data},
        "subcommand": subcommand,
        "kind": scenario.kind,
    }
    artifacts = []
    failures = []
    error = None

    wanted = _BCONTACT_STAGES if subcommand == "all" else (subcommand,)
    try:
        if scenario.kind == "bcontact":
            stages = [s for s in _BCONTACT_STAGES if s in wanted]
            if not stages:
                raise ValueError(
                    f"subcommand {subcommand!r} does not apply to a "
                    f"'bcontact' scenario")
            # later stages need the earlier ones' outputs
            t0 = time.perf_counter()
            tub, form = scenario_form(scenario)
            timing["build_s"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            fragment, fails, reeb = _stage_validate(
                form, tub, grid3, tol if "validate" in stages else None)
            timing["validate_s"] = time.perf_counter() - t0
            later = [s for s in stages if s != "validate"]
            if reeb is None and later:
                report["skipped"] = {"stages": later, "reason": (
                    "degenerate Reeb system; see the reeb_residuals check")}
                stages = ["validate"]
            if "validate" in stages:
                report.update(fragment)
                failures += fails
            if set(stages) - {"validate"}:
                t0 = time.perf_counter()
                fragment, fails, (zdata, points, reports, bound) = \
                    _stage_critical(form, tub, reeb,
                                    tol if stages == ["critical"] else None)
                timing["critical_s"] = time.perf_counter() - t0
                if "critical" in stages:
                    report.update(fragment)
                    failures += fails
            if set(stages) & {"trace", "census"}:
                t0 = time.perf_counter()
                fragment, fails, orbits = _stage_trace(
                    reeb, reports, tub, seeds,
                    tol if stages[-1] in ("trace", "census") else None)
                timing["trace_s"] = time.perf_counter() - t0
                report.update(fragment)
                failures += fails
                artifacts += _write_orbit_files(orbits, out_dir)
            if "census" in stages:
                t0 = time.perf_counter()
                fragment, fails, census = _stage_census(orbits, bound, tub)
                timing["census_s"] = time.perf_counter() - t0
                report.update(fragment)
                failures += fails
                artifacts.append(_write_census_file(census, out_dir))
        elif scenario.kind == "beltrami":
            if subcommand not in ("beltrami", "all", "validate"):
                raise ValueError(
                    f"subcommand {subcommand!r} does not apply to a "
                    f"'beltrami' scenario")
            t0 = time.perf_counter()
            fragment, fails, extra = _run_beltrami(scenario, grid3, tol)
            timing["beltrami_s"] = time.perf_counter() - t0
            report.update(fragment)
            failures += fails
            artifacts += extra
        else:
            if subcommand not in ("mcgehee", "all", "validate"):
                raise ValueError(
                    f"subcommand {subcommand!r} does not apply to a "
                    f"'mcgehee' scenario")
            t0 = time.perf_counter()
            fragment, fails, extra = _run_mcgehee(scenario, out_dir, tol)
            timing["mcgehee_s"] = time.perf_counter() - t0
            report.update(fragment)
            failures += fails
            artifacts += extra
    except Exception as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}

    report["verdict"] = {"passed": not failures and error is None,
                         "failures": failures}
    if error is not None:
        report["error"] = error
    timing["total_s"] = time.perf_counter() - t_start
    report["timing"] = timing
    artifacts.insert(0, write_report(report, out_dir))

    status = 1 if error is not None else (0 if not failures else 2)
    return RunResult(report, out_dir, artifacts, status)

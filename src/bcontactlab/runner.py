"""Scenario pipelines and artifact emission.

Each scenario kind runs one table of stages (``_PIPELINES``): ``build ->
validate -> critical -> trace -> census`` for bcontact, a single
``beltrami`` or ``mcgehee`` stage for the other two kinds.  :func:`run`
runs a table up to the last stage reported for the subcommand, timing
each stage as ``timing["<name>_s"]`` and all artifact writing as
``timing["write_s"]``, merges the reported stages' fragments, and
decides the verdict.  The artifacts:

``report.json``
    Every fragment plus the verdict, serialized on one line with sorted
    keys.  All wall-clock measurements live under the single top-level
    key ``"timing"``, so two runs of an unchanged scenario produce reports
    that are byte-identical once that subtree is dropped.  One rule
    (:func:`_reported`) turns a stage's result dataclasses into report
    data: every field is reported under its own name, except those
    declared ``field(metadata={"report": False})`` (the arrays); complex
    numbers become ``[real, imag]``, tuples lists and non-finite floats
    their ``repr``.
``census.csv``
    One row per critical point with its orbit tally (``census`` stage).
``orbits.csv``
    Every traced orbit, columns ``orbit,t,u,v,s,z,side``; ``orbit`` is
    the orbit's index in the report's ``orbits`` list.  Within an orbit
    time runs monotonically through the seed; ``side`` is the sign of z
    and ``s`` is log|z|.
``trajectory.csv``
    The inverted-radius run, columns ``t,x,a,Pr,Pa,H``.

A CSV cell is its value's ``str``: a float's shortest round-trip repr.

Stages raise; :func:`run` converts the failure into an ``error`` block,
keeps whatever artifacts exist, and reports exit status 1.  Verdict
failures (checks that ran and came out false) exit with status 2.  A
stage may ask for a skip (validate does on a degenerate Reeb system):
the run stops there, that stage's fragment is reported, and the stages
after it that the subcommand names (every one under ``all``) are listed
under ``"skipped"`` with the reason.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import json
import math
import time
import types
from pathlib import Path

import numpy as np

from .beltrami import (BeltramiData, beltrami_stability_matrix,
                       contact_from_beltrami, hamiltonian_identity_check,
                       laplace_eigen_check)
# perfbench/tracer.py wraps all four validation entry points by these names
from .contact import (check_grid, contact_check,  # noqa: F401
                      exceptional_hamiltonian, reeb_residual_report,
                      solve_reeb, verify_hamiltonian_identity)
from .critical import census_bound, find_critical_points, stability_at
from .mcgehee import (McGeheeParams, McGeheeState, integrate_mcgehee,
                      newtonian_oracle_compare)
from .orbits import escape_census, trace_invariant_manifolds
from .scenarios import Scenario, load_scenario, scenario_form

__all__ = ["run", "RunResult", "default_out_dir", "write_report"]

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
    complex number ``[real, imag]``, a tuple a list and a non-finite float
    (json rejects it) its ``repr``; dicts and lists are converted inside,
    and anything else passes through unchanged."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if obj is None or isinstance(obj, (str, int)):
        return obj  # the common leaves, before the dataclass lookup
    names = _report_fields(type(obj))
    if names is not None:
        return {name: _reported(getattr(obj, name)) for name in names}
    if isinstance(obj, complex):
        return [_reported(obj.real), _reported(obj.imag)]
    if isinstance(obj, dict):
        return {k: _reported(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reported(v) for v in obj]
    return obj


def write_report(report, out_dir):
    """Write ``report.json`` on one line with sorted keys.  Without an
    indent json runs its C encoder; non-finite floats are already strings
    (:func:`_reported`), and ``allow_nan=False`` keeps the JSON strict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    payload = json.dumps(report, sort_keys=True, default=_jsonable,
                         allow_nan=False)
    path.write_text(payload + "\n")
    return path


def _write_csv(path, header, blocks):
    """Write a CSV from blocks of rows, one ``write`` per block, so that
    no more than a block is ever held as text; a cell is its ``str``."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for rows in blocks:
            f.write("".join([",".join(map(str, row)) + "\n" for row in rows]))
    return Path(path)


# ---------------------------------------------------------------------------
# bcontact stages

def _stage_build(ctx):
    ctx.form = scenario_form(ctx.scenario)
    return {}, []


def _stage_validate(ctx):
    ctx.reeb, checks = solve_reeb(ctx.form, ctx.grid)
    if ctx.reeb is None:
        ctx.skip = "degenerate Reeb system; see the reeb_residuals check"
    return ({"checks": _reported(checks)},
            [c.check for c in checks if not c.passed])


def _stage_critical(ctx):
    warnings = []
    points = find_critical_points(exceptional_hamiltonian(ctx.form),
                                  warnings=warnings)
    ctx.reports = [stability_at(p, ctx.reeb) for p in points]
    ctx.bound = census_bound(points, [ctx.form.atlas])
    fragment = {
        "critical_points": _reported(points),
        "stability": _reported(ctx.reports),
        "bound": _reported(ctx.bound),
        "scan_warnings": list(warnings),
    }
    return fragment, []


def _stage_trace(ctx):
    ctx.orbits = trace_invariant_manifolds(ctx.reeb, ctx.reports,
                                           n_fan=ctx.seeds)
    failures = []
    bad = sum(1 for o in ctx.orbits
              if o.near_end.verdict == "integration-failed")
    if bad:
        failures.append(f"integration-failed x{bad}")
    return {"orbits": _reported(ctx.orbits)}, failures


def _stage_census(ctx):
    ctx.census = escape_census(ctx.orbits, ctx.bound, ctx.form.atlas)
    failures = [] if ctx.census.consistent_with_bound else ["census-vs-bound"]
    return {"census": _reported(ctx.census)}, failures


def _orbit_rows(k, orbit):
    """Orbit ``k``'s rows, its two traces merged into one time-ordered pass
    through the seed: the away trace backwards, less the seed the toward
    trace repeats."""
    rows = []
    for trace, sign, order in ((orbit.away, -1, slice(None, 0, -1)),
                               (orbit.toward, 1, slice(None))):
        t = (sign * trace.direction * trace.t).tolist()
        sigma = trace.sigma
        rows += [(k, ti, u, v, s, sigma * math.exp(s), sigma)
                 for ti, (u, v, s) in list(zip(t, trace.y.tolist()))[order]]
    return rows


def _write_orbits_file(ctx, out_dir):
    blocks = (_orbit_rows(k, orbit) for k, orbit in enumerate(ctx.orbits)
              if orbit.toward is not None)
    return [_write_csv(Path(out_dir) / "orbits.csv", "orbit,t,u,v,s,z,side",
                       blocks)]


def _write_census_file(ctx, out_dir):
    rows = [(d["chart"], d["u"], d["v"], d["index"], d["n_orbits"],
             "|".join(str(w) for w in d["weights"]))
            for d in ctx.census.per_point]
    return [_write_csv(Path(out_dir) / "census.csv",
                       "chart,u,v,index,n_orbits,weights", [rows])]


# ---------------------------------------------------------------------------
# beltrami / mcgehee pipelines

def _run_beltrami(ctx):
    data = BeltramiData.from_scenario(ctx.scenario.data)
    surface_grid = tuple(ctx.grid[:2])
    identity = hamiltonian_identity_check(data, grid=surface_grid)
    laplace = laplace_eigen_check(data, grid=surface_grid)
    form, roundtrip = contact_from_beltrami(data, grid=ctx.grid)
    points = find_critical_points(exceptional_hamiltonian(form))
    stagnation = [beltrami_stability_matrix(data, point=(p.u, p.v))
                  for p in points]
    fragment = {
        "identity": _reported(identity),
        "laplace": _reported(laplace),
        "roundtrip": _reported(roundtrip),
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
    return fragment, failures


def _run_mcgehee(ctx):
    params = McGeheeParams(float(ctx.scenario.option("mu")))
    state0 = McGeheeState(float(ctx.scenario.option("x0", 0.2)),
                          float(ctx.scenario.option("a0", 0.0)),
                          float(ctx.scenario.option("pr0", 0.0)),
                          float(ctx.scenario.option("pa0", 0.0)))
    t_end = float(ctx.scenario.option("t_end", 100.0))
    traj = ctx.trajectory = integrate_mcgehee(state0, params,
                                              t_span=(0.0, t_end))

    checks = {"energy_drift": {"value": traj.energy_drift,
                               "threshold": DRIFT_TOL,
                               "passed": traj.energy_drift < DRIFT_TOL}}
    if state0.x == 0.0:
        period = integrate_mcgehee(state0, params, t_span=(0.0, 2 * math.pi))
        wrapped = period.y[-1].copy()
        wrapped[1] = math.remainder(wrapped[1] - state0.a, 2 * math.pi)
        gap = float(np.abs(wrapped - np.array(
            [state0.x, 0.0, state0.pr, state0.pa])).max())
        stays = bool(np.all(period.y[:, 0] == 0.0))
        checks["periodicity"] = {
            "value": gap, "threshold": PERIODICITY_TOL,
            "passed": gap < PERIODICITY_TOL and stays, "x_stays_zero": stays,
        }
    else:
        oracle = newtonian_oracle_compare(state0, params,
                                          t_span=(0.0, min(10.0, t_end)))
        checks["oracle"] = {
            "value": oracle["max_deviation"], "threshold": ORACLE_TOL,
            "passed": oracle["max_deviation"] < ORACLE_TOL,
            "per_component": oracle["per_component"],
            "n_samples": oracle["n_samples"],
        }

    fragment = _reported({
        "mu": params.mu,
        "state0": list(state0.as_array()),
        "t_end": t_end,
        "integrator": traj.stats_dict(),
        "checks": checks,
    })
    return fragment, [name for name, c in checks.items() if not c["passed"]]


def _write_trajectory_file(ctx, out_dir):
    traj = ctx.trajectory
    rows = np.column_stack((traj.t, traj.y, traj.energy)).tolist()
    return [_write_csv(Path(out_dir) / "trajectory.csv", "t,x,a,Pr,Pa,H",
                       [rows])]


# ---------------------------------------------------------------------------
# orchestration

# A pipeline row.  ``fn(ctx)`` returns the stage's fragment and failures,
# reported under the subcommands in ``reported``, and leaves on ``ctx`` what
# later stages use (``ctx.skip = reason`` asks for a skip).
# ``write(ctx, out_dir)`` returns paths.
_Stage = collections.namedtuple("_Stage", "name fn reported write",
                                defaults=((), None))


_PIPELINES = {
    "bcontact": (
        _Stage("build", _stage_build),
        _Stage("validate", _stage_validate, ("validate", "all")),
        _Stage("critical", _stage_critical, ("critical", "all")),
        _Stage("trace", _stage_trace, ("trace", "census", "all"),
               _write_orbits_file),
        _Stage("census", _stage_census, ("census", "all"), _write_census_file),
    ),
    "beltrami": (
        _Stage("beltrami", _run_beltrami, ("beltrami", "validate", "all")),
    ),
    "mcgehee": (
        _Stage("mcgehee", _run_mcgehee, ("mcgehee", "validate", "all"),
               _write_trajectory_file),
    ),
}


def run(source, subcommand="all", out_dir=None, *, grid=None, seeds=None):
    """Execute ``subcommand`` for a scenario (path, name, or Scenario).

    Returns a :class:`RunResult` whose ``exit_status`` is 0 when every
    check passed, 2 when one came out false, and 1 when a stage raised.
    ``report.json`` is written in all three cases.  Odd ``seeds`` or below
    1, or a ``grid`` that ``check_grid`` rejects, raises ``ValueError``
    before anything is written, as a bad scenario raises ``ScenarioError``.
    Two grid counts take nz = 9.  Every pass/fail threshold is a module
    constant (README, "Tuning constants"), read when its stage runs.
    """
    if seeds is not None and (seeds < 1 or seeds % 2):
        raise ValueError(f"seeds must be at least 1 and even, got {seeds}")
    grid = (64, 64, 9) if grid is None else tuple(grid)
    check_grid(grid)
    grid3 = grid if len(grid) == 3 else (*grid, 9)
    t_start = time.perf_counter()
    timing = {}
    scenario = (source if isinstance(source, Scenario)
                else load_scenario(source))
    out_dir = Path(out_dir) if out_dir is not None else default_out_dir(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {
        "scenario": _reported({"origin": scenario.origin,
                               **scenario.data}),
        "subcommand": subcommand,
        "kind": scenario.kind,
    }
    artifacts = []
    failures = []
    error = None

    stages = _PIPELINES[scenario.kind]
    ctx = types.SimpleNamespace(scenario=scenario, grid=grid3, seeds=seeds,
                                skip=None)
    try:
        last = max((k for k, stage in enumerate(stages)
                    if subcommand in stage.reported), default=None)
        if last is None:
            raise ValueError(f"subcommand {subcommand!r} does not apply to "
                             f"a {scenario.kind!r} scenario")
        for k, stage in enumerate(stages[:last + 1]):
            t0 = time.perf_counter()
            fragment, fails = stage.fn(ctx)
            timing[f"{stage.name}_s"] = time.perf_counter() - t0
            later = [s.name for s in stages[k + 1:last + 1]
                     if subcommand in s.reported]
            skip = ctx.skip if later else None
            if subcommand in stage.reported or skip:
                report.update(fragment)
                failures += fails
            if stage.write is not None:
                t0 = time.perf_counter()
                artifacts += stage.write(ctx, out_dir)
                timing["write_s"] = (timing.get("write_s", 0.0)
                                     + time.perf_counter() - t0)
            if skip:
                report["skipped"] = {"stages": later, "reason": skip}
                break
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

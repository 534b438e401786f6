"""The artifacts state each fact once, and lose none.

A critical point's record appears only in ``critical_points``; an orbit,
its two ends and a ``census.per_point`` entry name the point by its
position there, and ``stability[k]`` is the spectrum of
``critical_points[k]``.  ``orbits.csv`` has no ``z`` column (z = side·e^s)
and no ``census.csv`` repeats ``census.per_point``.  The converter below
rebuilds the former layout of an ``all`` run from the two files that
remain: every copy of a point's record, ``stability[k].point``,
``per_point``'s chart, u, v and index, the ``z`` column and
``census.csv``.  On the torus and sphere builtins its output equals what
the former writers give from the same run's objects.
"""
import copy
import json
import math

import pytest

from bcontactlab import runner
from bcontactlab.runner import _reported, run
from tests.test_cli import _tuple_orbit_rows

_POINT_KEYS = ("chart", "u", "v", "index")


def former_report(report):
    """An ``all`` report with every point position replaced by the point's
    record, as the former layout wrote it."""
    old = copy.deepcopy(report)
    points = old.get("critical_points")
    if points is None:
        return old
    for k, entry in enumerate(old["stability"]):
        entry["point"] = points[k]
    for orbit in old.get("orbits", []):
        orbit["point"] = points[orbit["point"]]
        for end in (orbit["near_end"], orbit["far_end"]):
            if end["point"] is not None:
                end["point"] = points[end["point"]]
    if "census" in old:
        old["census"]["per_point"] = [
            {**{key: points[d["point"]][key] for key in _POINT_KEYS},
             "n_orbits": d["n_orbits"], "weights": d["weights"]}
            for d in old["census"]["per_point"]]
    return old


def former_orbits_csv(text):
    """``orbits.csv`` with its former ``z`` column, ``repr(side·e^s)``."""
    _, *lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    return "orbit,t,u,v,s,z,side\n" + "".join(
        ",".join([*r[:5], repr(int(r[5]) * math.exp(float(r[4]))), r[5]])
        + "\n" for r in rows)


def former_census_csv(old_report):
    """The former ``census.csv``, from a report in the former layout."""
    return "chart,u,v,index,n_orbits,weights\n" + "".join(
        ",".join(map(str, [*(d[key] for key in _POINT_KEYS), d["n_orbits"],
                           "|".join(map(str, d["weights"]))])) + "\n"
        for d in old_report["census"]["per_point"])


def _as_json(data):
    return json.loads(json.dumps(data, default=runner._jsonable))


@pytest.fixture(scope="module", params=["torus", "sphere"])
def recorded_run(request, tmp_path_factory):
    """An ``all`` run of a builtin, with the objects its stages made."""
    seen = {}
    patch = pytest.MonkeyPatch()
    for name in ("find_critical_points", "trace_invariant_manifolds",
                 "escape_census"):
        def spy(*args, _name=name, _inner=getattr(runner, name), **kwargs):
            seen[_name] = (args, _inner(*args, **kwargs))
            return seen[_name][1]
        patch.setattr(runner, name, spy)
    try:
        result = run(request.param, "all",
                     tmp_path_factory.mktemp(request.param))
    finally:
        patch.undo()
    assert result.exit_status == 0
    return result, seen


def test_the_former_layout_is_rebuilt_from_the_new(recorded_run):
    result, seen = recorded_run
    points = seen["find_critical_points"][1]
    (_, reports, *_), orbits = seen["trace_invariant_manifolds"]
    census = seen["escape_census"][1]
    # the former writers, on the run's own objects
    old = _as_json({
        "critical_points": _reported(points),
        "stability": [{**_reported(r), "point": _reported(r.point)}
                      for r in reports],
        "orbits": _reported(orbits),
        "census": {**_reported(census), "per_point": [
            {**{key: getattr(d["point"], key) for key in _POINT_KEYS},
             "n_orbits": d["n_orbits"], "weights": d["weights"]}
            for d in census.per_point]},
    })
    old_orbits_csv = "orbit,t,u,v,s,z,side\n" + "".join(
        ",".join(map(str, row)) + "\n" for k, orbit in enumerate(orbits)
        if orbit.toward is not None for row in _tuple_orbit_rows(k, orbit))
    old_census_csv = "chart,u,v,index,n_orbits,weights\n" + "".join(
        ",".join(map(str, [*(getattr(d["point"], key) for key in _POINT_KEYS),
                           d["n_orbits"], "|".join(map(str, d["weights"]))]))
        + "\n" for d in census.per_point)

    out = result.out_dir
    rebuilt = former_report(json.loads((out / "report.json").read_text()))
    for key, block in old.items():
        assert rebuilt[key] == block, key
    assert former_orbits_csv((out / "orbits.csv").read_text()) == \
        old_orbits_csv
    assert former_census_csv(rebuilt) == old_census_csv
    assert sorted(p.name for p in out.iterdir()) == ["orbits.csv",
                                                     "report.json"]


def test_every_position_indexes_critical_points(recorded_run):
    report = recorded_run[0].report
    n = len(report["critical_points"])
    assert len(report["stability"]) == n
    positions = [d["point"] for d in report["census"]["per_point"]]
    for orbit in report["orbits"]:
        positions.append(orbit["point"])
        positions += [end["point"] for end in (orbit["near_end"],
                                               orbit["far_end"])
                      if end["point"] is not None]
    assert positions and all(type(k) is int and 0 <= k < n
                             for k in positions)


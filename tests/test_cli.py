"""End-to-end pipeline runs, the report rule and the command-line surface."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcontactlab
from bcontactlab import contact, mcgehee, runner
from bcontactlab.cli import main
from bcontactlab.contact import (BReebField, ValidationReport,
                                 exceptional_hamiltonian)
from bcontactlab.critical import (CensusBound, CriticalPoint,
                                  StabilityReport, find_critical_points,
                                  stability_at)
from bcontactlab.orbits import (EscapeCensus, EscapeOrbit, LimitReport,
                                RegularizedState, trace_invariant_manifolds)
from bcontactlab.runner import _reported, run
from bcontactlab.scenarios import ScenarioError, load_scenario, scenario_form


@pytest.fixture(scope="module")
def sphere_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sphere-all")
    return run("sphere", "all", out)


def test_sphere_pipeline_passes(sphere_run):
    assert sphere_run.exit_status == 0
    census = sphere_run.report["census"]
    assert census["n_distinct"] == 4
    assert census["weighted_total"] == 4
    assert census["consistent_with_bound"] is True
    assert sphere_run.report["bound"]["expected_weighted"] == 4


def test_sphere_scan_refines_no_phantom_edge_candidate(sphere_run):
    # the angular charts' θ edges lie inside the pole disks and the other
    # angular chart, which scan those points in their interiors
    assert sphere_run.report["scan_warnings"] == []


def test_sphere_artifacts(sphere_run):
    names = sorted(p.name for p in sphere_run.out_dir.iterdir())
    assert names == ["orbits.csv", "report.json"]
    per_point = sphere_run.report["census"]["per_point"]
    assert [d["point"] for d in per_point] == [0, 1]  # one entry per pole


def test_orbit_csv_shape(sphere_run):
    lines = (sphere_run.out_dir / "orbits.csv").read_text().splitlines()
    assert lines[0] == "orbit,t,u,v,s,side"
    rows = [r[1:] for r in (line.split(",") for line in lines[1:])
            if r[0] == "0"]
    assert rows
    t = [float(r[0]) for r in rows]
    assert t == sorted(t)  # one time-ordered pass through the seed
    assert {int(r[4]) for r in rows} <= {-1, 1}


@pytest.fixture(scope="module")
def torus_run(tmp_path_factory):
    return run("torus", "all", tmp_path_factory.mktemp("torus-all"))


@pytest.fixture(scope="module")
def mcgehee_run(tmp_path_factory):
    return run("mcgehee", "all", tmp_path_factory.mktemp("mcgehee-all"))


def _csv(path):
    header, *lines = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in lines]


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_orbits_csv_agrees_with_the_report(request, name):
    result = request.getfixturevalue(f"{name}_run")
    orbits = result.report["orbits"]
    _, rows = _csv(result.out_dir / "orbits.csv")
    ks = [int(row[0]) for row in rows]
    assert ks == sorted(ks)  # each orbit's rows together, in report order
    samples = {}
    for row in rows:
        samples.setdefault(int(row[0]), []).append(
            [float(cell) for cell in row[1:5]])
    traced = {k for k, o in enumerate(orbits)
              if o["near_end"]["verdict"] != "integration-failed"}
    assert set(samples) == traced
    for k, orbit_rows in samples.items():
        t = [r[0] for r in orbit_rows]
        assert t == sorted(t), k
        # (u, v, s) at either end is the state its limit was judged on
        assert orbit_rows[0][1:] == orbits[k]["far_end"]["final_state"], k
        assert orbit_rows[-1][1:] == orbits[k]["near_end"]["final_state"], k


def test_every_numeric_csv_cell_parses(torus_run, sphere_run, mcgehee_run):
    # a numpy scalar written by its repr ("np.float64(0.5)") would not parse
    for result in (torus_run, sphere_run):
        _, rows = _csv(result.out_dir / "orbits.csv")
        for row in rows:
            assert len(row) == 6
            int(row[0]), int(row[5])
            [float(cell) for cell in row[1:5]]
    header, rows = _csv(mcgehee_run.out_dir / "trajectory.csv")
    assert header == ["t", "x", "a", "Pr", "Pa", "H"] and rows
    for row in rows:
        assert len(row) == 6
        [float(cell) for cell in row]


def _tuple_orbit_rows(k, orbit):
    """Orbit ``k``'s rows as tuples ``(orbit, t, u, v, s, z, side)``, the
    rows of ``orbits.csv`` with its former ``z = side·e^s`` column: the
    away trace backwards, less the seed, then the toward trace."""
    rows = []
    for trace, sign, order in ((orbit.away, -1, slice(None, 0, -1)),
                               (orbit.toward, 1, slice(None))):
        t = (sign * trace.direction * trace.t).tolist()
        rows += [(k, ti, u, v, s, trace.sigma * math.exp(s), trace.sigma)
                 for ti, (u, v, s) in list(zip(t, trace.y.tolist()))[order]]
    return rows


def test_orbits_csv_equals_the_str_join_writer(torus_run):
    form = scenario_form(load_scenario("torus"))
    reeb = BReebField(form)
    reports = [stability_at(p, reeb)
               for p in find_critical_points(exceptional_hamiltonian(form))]
    orbits = trace_invariant_manifolds(reeb, reports)
    text = "orbit,t,u,v,s,side\n" + "".join(
        ",".join(map(str, row[:5] + row[6:])) + "\n"
        for k, orbit in enumerate(orbits)
        if orbit.toward is not None for row in _tuple_orbit_rows(k, orbit))
    assert (torus_run.out_dir / "orbits.csv").read_bytes() == text.encode()


def _strict_report(out_dir):
    """The report, parsed without the NaN and Infinity tokens of lax JSON."""
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    text = (Path(out_dir) / "report.json").read_text()
    assert text.endswith("\n") and text.count("\n") == 1  # one line
    return json.loads(text, parse_constant=reject)


def test_reports_are_strict_json_with_non_finite_floats_as_strings(
        torus_run, mcgehee_run):
    torus = _strict_report(torus_run.out_dir)
    assert "inf" in {o["far_end"]["distance"] for o in torus["orbits"]}
    assert torus == json.loads(json.dumps(_reported(torus_run.report)))
    mcgehee = _strict_report(mcgehee_run.out_dir)
    assert mcgehee["checks"] == json.loads(json.dumps(
        mcgehee_run.report["checks"]))


def test_non_finite_values_outside_the_stage_results_become_strings(
        tmp_path, monkeypatch):
    import bcontactlab.runner as runner
    oracle = runner.newtonian_oracle_compare
    monkeypatch.setattr(runner, "newtonian_oracle_compare", lambda *a, **k: {
        **oracle(*a, **k), "max_deviation": math.nan})
    result = run("mcgehee", "all", tmp_path / "mcgehee")
    assert result.exit_status == 2
    report = _strict_report(tmp_path / "mcgehee")
    assert report["checks"]["oracle"]["value"] == "nan"

    to_contact = runner.contact_from_beltrami
    def roundtrip_inf(*args, **kwargs):
        form, roundtrip = to_contact(*args, **kwargs)
        return form, {**roundtrip, "roundtrip_max_error": -math.inf}
    monkeypatch.setattr(runner, "contact_from_beltrami", roundtrip_inf)
    run("beltrami", "all", tmp_path / "beltrami")
    report = _strict_report(tmp_path / "beltrami")
    assert report["roundtrip"]["roundtrip_max_error"] == "-inf"

    # the scenario echo: lax JSON input may hold a non-finite value only in
    # a key that is not checked, and no key is left unchecked
    path = tmp_path / "described.json"
    path.write_text(json.dumps({"kind": "mcgehee", "name": "described",
                                "mu": 0.5, "t_end": 1.0,
                                "description": [math.inf, "x"]}))
    with pytest.raises(ScenarioError, match="'description'"):
        run(str(path), "all", tmp_path / "described")
    assert not (tmp_path / "described").exists()


@dataclasses.dataclass
class _Inner:
    rate: complex
    matrix: np.ndarray = dataclasses.field(metadata={"report": False})


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    table: dict
    point: object


def test_reported_converts_a_result_field_by_field():
    result = _Outer(inner=_Inner(rate=1 - 2j, matrix=np.eye(3)),
                    table={"pair": (3, np.float64(0.25)), "n": 7}, point=None)
    data = _reported(result)
    assert data == {"inner": {"rate": [1.0, -2.0]},
                    "table": {"pair": [3, 0.25], "n": 7}, "point": None}
    assert type(data["table"]["pair"][1]) is np.float64


def _reported_keys(cls):
    return {f.name for f in dataclasses.fields(cls)
            if f.metadata.get("report", True)}


def test_report_blocks_hold_every_reported_field(sphere_run):
    """Each block of the report carries exactly its dataclass's reported
    fields: a new field cannot be dropped, nor an array leak in."""
    report = sphere_run.report
    blocks = [(ValidationReport, c) for c in report["checks"]]
    blocks += [(CriticalPoint, p) for p in report["critical_points"]]
    blocks += [(StabilityReport, s) for s in report["stability"]]
    blocks += [(CensusBound, report["bound"]),
               (EscapeCensus, report["census"])]
    for o in report["orbits"]:
        blocks += [(EscapeOrbit, o), (RegularizedState, o["seed"]),
                   (LimitReport, o["near_end"]), (LimitReport, o["far_end"])]
    for cls, block in blocks:
        assert set(block) == _reported_keys(cls), cls.__name__
    for d in report["census"]["per_point"]:
        assert set(d) == {"point", "n_orbits", "weights"}
    assert "dr_matrix" not in report["stability"][0]
    assert "point" not in report["stability"][0]
    assert "toward" not in report["orbits"][0]


@pytest.mark.parametrize("name", ["sphere", "torus", "beltrami", "mcgehee"])
def test_report_is_deterministic_except_timing(tmp_path, name):
    a = run(name, "all", tmp_path / "a").report
    b = run(name, "all", tmp_path / "b").report
    del a["timing"], b["timing"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# an orbit or a census entry names its critical point by its position in
# critical_points, so every report that holds one holds that list
_CRITICAL = {"critical_points", "stability", "bound", "scan_warnings"}
_STAGE_SUBSETS = {  # subcommand: (report keys beyond the common ones, files)
    "validate": ({"checks"}, []),
    "critical": (_CRITICAL, []),
    "trace": (_CRITICAL | {"orbits"}, ["orbits.csv"]),
    "census": (_CRITICAL | {"orbits", "census"}, ["orbits.csv"]),
    "all": (_CRITICAL | {"checks", "orbits", "census"}, ["orbits.csv"]),
}


def test_stage_subsets(tmp_path):
    validate = run("sphere", "validate", tmp_path / "v").report
    assert "checks" in validate and "census" not in validate
    assert all(c["passed"] for c in validate["checks"])
    critical = run("sphere", "critical", tmp_path / "c").report
    assert len(critical["critical_points"]) == 2
    assert {s["kind"] for s in critical["stability"]} == {
        "nonhyperbolic-1d-transverse"}

    common = {"scenario", "subcommand", "kind", "verdict", "timing"}
    for sub, (keys, files) in _STAGE_SUBSETS.items():
        result = run("torus", sub, tmp_path / sub, seeds=2)
        assert result.exit_status == 0, sub
        assert set(result.report) == common | keys, sub
        names = [p.name for p in result.artifacts]
        assert names == ["report.json", *files], sub
        assert sorted(p.name for p in (tmp_path / sub).iterdir()) == sorted(
            names)
        assert ("write_s" in result.report["timing"]) == bool(files), sub

    for name, sub in (("mcgehee", "critical"), ("torus", "beltrami")):
        result = run(name, sub, tmp_path / f"{name}-{sub}")
        assert result.exit_status == 1
        assert set(result.report) == common | {"error"}
        assert result.report["error"] == {
            "type": "ValueError",
            "message": f"subcommand {sub!r} does not apply to a "
                       f"{result.report['kind']!r} scenario"}
        assert result.report["verdict"] == {"passed": False, "failures": []}
        assert [p.name for p in result.artifacts] == ["report.json"]
        assert "write_s" not in result.report["timing"]


def test_validate_tol_sets_the_residual_thresholds(tmp_path, monkeypatch):
    # on the torus V = −1, so the closed-form solve makes the identity
    # residual exactly 0 and no positive threshold fails it
    monkeypatch.setattr(contact, "RESIDUAL_TOL", 1e-16)
    result = run("torus", "validate", tmp_path / "torus")
    assert result.exit_status == 2
    checks = {c["check"]: c for c in result.report["checks"]}
    assert checks["contact_check"]["threshold"] == 1e-8
    assert checks["contact_check"]["passed"]
    for name in ("reeb_residuals", "hamiltonian_identity"):
        assert checks[name]["threshold"] == 1e-16
    assert checks["hamiltonian_identity"]["worst_value"] == 0.0
    assert result.report["verdict"]["failures"] == ["reeb_residuals"]
    # the sphere's rounding-level residuals fail both checks
    monkeypatch.setattr(contact, "RESIDUAL_TOL", 1e-17)
    result = run("sphere", "validate", tmp_path / "sphere")
    assert result.exit_status == 2
    checks = {c["check"]: c for c in result.report["checks"]}
    for name in ("reeb_residuals", "hamiltonian_identity"):
        assert checks[name]["threshold"] == 1e-17
        assert not checks[name]["passed"]
    assert result.report["verdict"]["failures"] == [
        "reeb_residuals", "hamiltonian_identity"]


def test_every_check_names_its_worst_location(tmp_path):
    # the torus identity residual is exactly 0, a worst value like any other
    result = run("torus", "validate", tmp_path)
    checks = {c["check"]: c for c in result.report["checks"]}
    assert checks["hamiltonian_identity"]["worst_value"] == 0.0
    for check in checks.values():
        assert check["passed"]
        assert {"chart", "u", "v"} <= set(check["worst_location"])


def test_infinite_without_a_saddle_witness_fails_the_census(tmp_path):
    # beta_z = 0.1 cos(u) makes the frame read z: every saddle near end is
    # undecided, and the 8 distinct orbits all come from the 4 extrema
    payload = load_scenario("torus").data | {"name": "torus-beta-z"}
    payload["fields"] = {"torus": payload["fields"]["torus"]
                         | {"beta_z": "0.1*cos(u)"}}
    path = tmp_path / "torus-beta-z.json"
    path.write_text(json.dumps(payload))
    result = run(str(path), "all", tmp_path / "out")
    assert result.exit_status == 2
    assert result.report["verdict"]["failures"] == ["census-vs-bound"]
    census = result.report["census"]
    assert census["verdict"] == "infinite" and census["n_distinct"] == 8
    points = result.report["critical_points"]
    assert {points[d["point"]]["index"] for d in census["per_point"]} == {0, 2}


@pytest.mark.parametrize("subcommand,skipped", [
    ("critical", ["critical"]), ("trace", ["critical", "trace"]),
    ("census", ["critical", "trace", "census"]),
    ("all", ["critical", "trace", "census"])],
    ids=["critical", "trace", "census", "all"])
def test_non_contact_form_fails_checks_and_exits_2(tmp_path, subcommand,
                                                   skipped):
    # alpha∧dalpha vanishes on the circles v = π/2 and v = 3π/2
    payload = {"kind": "bcontact", "name": "non-contact", "surface": "torus",
               "epsilon": 0.5,
               "fields": {"torus": {"f": "cos(v)^3 + 2", "beta_u": "sin(v)",
                                    "beta_v": "0", "beta_z": "0"}}}
    path = tmp_path / "non-contact.json"
    path.write_text(json.dumps(payload))
    result = run(str(path), subcommand, tmp_path / "out")
    assert result.exit_status == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "error" not in report
    checks = {c["check"]: c for c in report["checks"]}
    assert set(checks) == {"contact_check", "reeb_residuals",
                           "hamiltonian_identity"}
    assert not any(c["passed"] for c in checks.values())
    assert checks["contact_check"]["worst_value"] < 1e-12
    assert checks["contact_check"]["worst_location"]["v"] == pytest.approx(
        math.pi / 2)
    for name in ("reeb_residuals", "hamiltonian_identity"):
        where = checks[name]["worst_location"]
        assert where["chart"] == "torus"
        assert where["v"] == pytest.approx(math.pi / 2)
        assert where["cause"].startswith("|det N|")
    assert report["verdict"]["failures"] == [
        "contact_check", "reeb_residuals", "hamiltonian_identity"]
    assert report["skipped"]["stages"] == skipped
    assert report["skipped"]["reason"]
    assert not {"critical_points", "orbits", "census"} & set(report)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "report.json"]


@pytest.mark.parametrize("f", [
    "1e200*cos(v)*1e200",
    "cos(v) + 0.3*cos(u)*sin(v) + 1e300*u*1e300*0"],
    ids=["overflow", "nan"])
@pytest.mark.parametrize("subcommand,skipped", [
    ("validate", None), ("all", ["critical", "trace", "census"])])
def test_non_finite_frame_fails_validation_and_exits_2(tmp_path, f,
                                                       subcommand, skipped):
    # the frame overflows to ±inf, or to NaN where u > 0, on most samples
    payload = {"kind": "bcontact", "name": "non-finite", "surface": "torus",
               "epsilon": 0.5,
               "fields": {"torus": {"f": f, "beta_u": "sin(v)",
                                    "beta_v": "0", "beta_z": "0"}}}
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main([subcommand, "--scenario", str(path), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert "error" not in report
    checks = {c["check"]: c for c in report["checks"]}
    assert not any(c["passed"] for c in checks.values())
    contact = checks["contact_check"]
    assert contact["worst_value"] in ("inf", "nan")
    assert contact["worst_location"]["chart"] == "torus"
    for name in ("reeb_residuals", "hamiltonian_identity"):
        assert checks[name]["worst_location"]["cause"]
    assert report.get("skipped", {}).get("stages") == skipped


def test_mcgehee_trajectory_file(tmp_path):
    result = run("mcgehee", "all", tmp_path)
    assert result.exit_status == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,a,Pr,Pa,H"
    data = np.array([[float(c) for c in line.split(",")]
                     for line in lines[1:]])
    assert data[0, 1] == 0.2
    assert np.abs(data[:, 5] - data[0, 5]).max() < 1e-8


def test_mcgehee_infinity_manifold_scenario(tmp_path):
    payload = {"kind": "mcgehee", "name": "rim", "mu": 0.25, "x0": 0.0,
               "a0": 1.0, "pr0": 0.0, "pa0": 1.0, "t_end": 20.0}
    path = tmp_path / "rim.json"
    path.write_text(json.dumps(payload))
    result = run(str(path), "mcgehee", tmp_path / "out")
    assert result.exit_status == 0
    check = result.report["checks"]["periodicity"]
    assert check["passed"] and check["x_stays_zero"]


def test_the_oracle_window_is_capped_in_either_direction(tmp_path):
    builtin = Path(runner.__file__).parent / "scenarios" / "mcgehee.json"
    samples = {}
    for t_end in (-300.0, -10.0, 10.0, 300.0):
        path = tmp_path / f"t{t_end:+.0f}.json"
        path.write_text(json.dumps({**json.loads(builtin.read_text()),
                                    "name": path.stem, "t_end": t_end}))
        result = run(str(path), "mcgehee", tmp_path / path.stem)
        samples[t_end] = result.report["checks"]["oracle"]["n_samples"]
    assert samples[-300.0] == samples[-10.0]
    assert samples[300.0] == samples[10.0]


def test_a_three_body_run_integrates_once(tmp_path, monkeypatch):
    # the oracle compares the run's own samples; it integrates nothing
    inner, spans = mcgehee.integrate, []

    def spy(f, y0, t_span, *args, **kwargs):
        spans.append(t_span)
        return inner(f, y0, t_span, *args, **kwargs)

    monkeypatch.setattr(mcgehee, "integrate", spy)
    result = run("mcgehee", "mcgehee", tmp_path)
    assert result.report["checks"]["oracle"]["passed"]
    assert spans == [(0.0, 100.0)]


def test_beltrami_pipeline(tmp_path):
    result = run("beltrami", "beltrami", tmp_path)
    assert result.exit_status == 0
    report = result.report
    assert report["identity"]["passed"]
    assert report["laplace"]["verdict"] == "eigenfunction"
    assert report["roundtrip"]["stream_recovered"]
    assert len(report["stagnation"]) == 4


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["validate", "--scenario", "sphere",
                 "--out", str(tmp_path / "ok")]) == 0
    assert "PASS" in capsys.readouterr().out

    # an impossible drift tolerance turns a passing run into a verdict failure
    monkeypatch.setattr(runner, "DRIFT_TOL", 1e-30)
    assert main(["mcgehee", "--scenario", "mcgehee",
                 "--out", str(tmp_path / "strict")]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "energy_drift" in out

    assert main(["validate", "--scenario", "no-such-thing"]) == 1
    assert "built-in" in capsys.readouterr().err


def test_cli_usage_errors_are_operational(tmp_path, capsys):
    assert main(["census", "--scenario", "sphere", "--grid", "x,y"]) == 1
    assert main(["validate", "--scenario", "sphere", "--grid", "16,16,2",
                 "--out", str(tmp_path)]) == 1
    assert main(["not-a-subcommand"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["1e-9", "nan", "inf", "0", "-1"])
def test_cli_rejects_a_tol_that_is_not_positive(tmp_path, capsys, tol):
    # no option moves a threshold, so a positive --tol is refused as well
    out = tmp_path / "out"
    assert main(["trace", "--scenario", "torus", "--tol", tol,
                 "--out", str(out)]) == 1
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_run_rejects_a_tol_that_is_not_positive(tmp_path, tol):
    # nor does a keyword of run(): a caller patches the module constant
    with pytest.raises(TypeError, match="tol"):
        run("sphere", "trace", tmp_path / "out", tol=tol)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [0, -3])
def test_run_rejects_a_seed_count_below_one(tmp_path, capsys, seeds):
    with pytest.raises(ValueError, match="seeds"):
        run("torus", "all", tmp_path / "out", seeds=seeds)
    assert not (tmp_path / "out").exists()
    assert main(["all", "--scenario", "torus", "--seeds", str(seeds),
                 "--out", str(tmp_path / "out")]) == 1
    assert "error: --seeds must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", [1, 3, 5])
def test_run_rejects_an_odd_seed_count(tmp_path, capsys, seeds):
    # an odd fan's middle seed sits at psi = pi, on Z, and stays undecided
    with pytest.raises(ValueError, match="seeds must be at least 1 and even"):
        run("torus", "all", tmp_path / "out", seeds=seeds)
    assert not (tmp_path / "out").exists()
    assert main(["all", "--scenario", "torus", "--seeds", str(seeds),
                 "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    assert f"error: --seeds must be at least 1 and even, got {seeds}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("grid", [
    (1, 1), (16, 1, 3), (16, 16, 0), (16, 16, -1), (16, 16, 4),
    (16, 16, 3, 3)], ids=["1,1", "16,1,3", "16,16,0", "16,16,-1", "16,16,4",
                          "16,16,3,3"])
def test_run_rejects_a_grid_the_sweep_rejects(tmp_path, capsys, grid):
    message = (f"grid must be nu,nv or nu,nv,nz with nu, nv >= 2 and nz odd "
               f"and positive, got {list(grid)}")
    with pytest.raises(ValueError) as info:
        run("sphere", "validate", tmp_path / "out", grid=grid)
    assert str(info.value) == message
    assert not (tmp_path / "out").exists()
    assert main(["validate", "--scenario", "sphere", "--grid",
                 ",".join(map(str, grid)),
                 "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    assert f"error: --{message}" in capsys.readouterr().err


def test_cli_captured_pipeline_error(tmp_path, capsys):
    payload = {"kind": "mcgehee", "name": "crash", "mu": 0.5, "x0": 2.0}
    path = tmp_path / "crash.json"
    path.write_text(json.dumps(payload))
    assert main(["mcgehee", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "CollisionError" in captured.err
    # partial artifacts are retained for inspection
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["type"] == "CollisionError"


def test_seed_count_flag(tmp_path):
    result = run("torus", "trace", tmp_path, seeds=4)
    saddle_orbits = [o for o in result.report["orbits"]
                     if o["psi"] is not None]
    assert len(saddle_orbits) == 4 * 4  # four saddles, four fan directions
    assert result.exit_status == 0


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(bcontactlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bcontactlab.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

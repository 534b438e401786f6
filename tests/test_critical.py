"""Critical-point detection and classification on the two reference setups.

Torus, H = −(cos v + 0.3 cos u sin v): eight nondegenerate points.  With
t = atan(0.3) and r = sqrt(1.09),

    minima   (0, t) and (π, 2π−t), H = −r, index 0
    saddles  (π/2, 0), (3π/2, 0) at H = −1 and (π/2, π), (3π/2, π) at H = 1
    maxima   (0, π+t) and (π, π−t), H = r, index 2

Sphere, H = −cos θ: just the poles, a minimum at the north pole (H = −1)
and a maximum at the south pole (H = 1), both found in the disk charts.
"""
import cmath
import copy
import json
import math

import numpy as np
import pytest

from bcontactlab.charts import TubularChart
from bcontactlab.contact import (BContactForm, BReebField, ChartFields,
                                 exceptional_hamiltonian)
from bcontactlab.critical import (
    MorseInequalityViolation, NotMorseError, RegularValueViolation,
    SpectrumMismatchError, _edge_cells, _local_minima_box, census_bound,
    find_critical_points, stability_at,
)
from bcontactlab.expressions import parse
from bcontactlab.runner import run
from bcontactlab.scenarios import load_scenario, scenario_form
from tests.test_contact import torus_setup

T_STAR = math.atan(0.3)
ROOT = math.sqrt(1.09)
PI = math.pi

TORUS_EXPECTED = [
    (0.0, T_STAR, 0, -ROOT),
    (PI, 2 * PI - T_STAR, 0, -ROOT),
    (PI / 2, 0.0, 1, -1.0),
    (3 * PI / 2, 0.0, 1, -1.0),
    (PI / 2, PI, 1, 1.0),
    (3 * PI / 2, PI, 1, 1.0),
    (0.0, PI + T_STAR, 2, ROOT),
    (PI, PI - T_STAR, 2, ROOT),
]


@pytest.fixture(scope="module")
def torus_points():
    form = torus_setup()
    zdata = exceptional_hamiltonian(form)
    warnings = []
    points = find_critical_points(zdata, warnings=warnings)
    return form.atlas, form, zdata, points, warnings


@pytest.fixture(scope="module")
def sphere_points():
    form = scenario_form(load_scenario("sphere"))
    zdata = exceptional_hamiltonian(form)
    points = find_critical_points(zdata)
    return form.atlas, form, zdata, points


def _match(points, u, v, tub, chart="torus"):
    hits = [p for p in points
            if tub.distance(chart, (u, v), p.chart, (p.u, p.v)) < 1e-7]
    assert len(hits) == 1, f"expected exactly one point near ({u}, {v})"
    return hits[0]


def test_torus_has_eight_points_with_expected_data(torus_points):
    tub, _, _, points, _ = torus_points
    assert len(points) == 8
    for u, v, index, H in TORUS_EXPECTED:
        p = _match(points, u, v, tub)
        assert p.index == index
        assert p.H == pytest.approx(H, abs=1e-12)
        assert p.f == pytest.approx(-H, abs=1e-12)
        assert p.grad_norm < 1e-10


def test_torus_census_is_infinite(torus_points):
    tub, _, _, points, _ = torus_points
    bound = census_bound(points, [tub])
    assert bound.counts == (2, 4, 2)
    assert bound.verdict == "infinite"
    assert bound.lower_bound == 2
    assert bound.expected_weighted is None
    comp = bound.per_component[0]
    assert comp["euler"] == 0 and comp["euler_ok"]


def test_torus_saddle_stability(torus_points):
    tub, form, zdata, points, _ = torus_points
    reeb = BReebField(form)
    p = _match(points, PI / 2, 0.0, tub)
    rep = stability_at(p, reeb)
    assert rep.kind == "hyperbolic-2d-transverse"
    assert rep.det_hess_darboux == pytest.approx(-0.09, abs=1e-10)
    assert rep.w_at_p == pytest.approx(-1.0, abs=1e-12)
    assert rep.lambda_plus == pytest.approx(0.3, abs=1e-9)
    assert rep.lambda_minus == pytest.approx(-0.3, abs=1e-9)
    assert rep.lambda_z == pytest.approx(1.0, abs=1e-12)
    assert rep.transverse == "unstable"
    assert rep.max_rel_mismatch < 1e-6
    got = sorted(rep.eigenvalues.real)
    assert got == pytest.approx([-0.3, 0.3, 1.0], abs=1e-9)


def test_torus_extremum_stability(torus_points):
    tub, form, zdata, points, _ = torus_points
    reeb = BReebField(form)
    pmin = _match(points, 0.0, T_STAR, tub)
    rep = stability_at(pmin, reeb)
    assert rep.kind == "nonhyperbolic-1d-transverse"
    assert rep.det_hess_darboux == pytest.approx(0.09, abs=1e-10)
    assert rep.lambda_plus == pytest.approx(0.3j, abs=1e-9)
    assert rep.lambda_z == pytest.approx(1.0 / ROOT, rel=1e-12)
    # the Reeb rotation rate times f(p) is one on the invariant axis
    assert rep.lambda_z * pmin.f == pytest.approx(1.0, rel=1e-12)
    assert rep.transverse == "unstable"
    pmax = _match(points, 0.0, PI + T_STAR, tub)
    rep2 = stability_at(pmax, reeb)
    assert rep2.lambda_z == pytest.approx(-1.0 / ROOT, rel=1e-12)
    assert rep2.transverse == "stable"


def test_sphere_finds_exactly_the_poles(sphere_points):
    tub, _, _, points = sphere_points
    assert len(points) == 2
    north = next(p for p in points if p.chart == "north-pole")
    south = next(p for p in points if p.chart == "south-pole")
    assert math.hypot(north.u, north.v) < 1e-8
    assert math.hypot(south.u, south.v) < 1e-8
    assert north.H == pytest.approx(-1.0, abs=1e-12) and north.index == 0
    assert south.H == pytest.approx(1.0, abs=1e-12) and south.index == 2


def test_sphere_pole_stability(sphere_points):
    tub, form, zdata, points = sphere_points
    reeb = BReebField(form)
    north = next(p for p in points if p.chart == "north-pole")
    rep = stability_at(north, reeb)
    assert rep.kind == "nonhyperbolic-1d-transverse"
    assert rep.w_at_p == pytest.approx(2.0, abs=1e-10)
    assert rep.det_hess_darboux == pytest.approx(0.25, abs=1e-10)
    assert rep.lambda_plus == pytest.approx(0.5j, abs=1e-8)
    assert rep.lambda_z == pytest.approx(1.0, abs=1e-12)
    south = next(p for p in points if p.chart == "south-pole")
    rep2 = stability_at(south, reeb)
    assert rep2.lambda_z == pytest.approx(-1.0, abs=1e-12)
    assert rep2.transverse == "stable"
    assert rep2.lambda_plus == pytest.approx(0.5j, abs=1e-8)


def test_sphere_census_predicts_four_weighted_orbits(sphere_points):
    tub, _, _, points = sphere_points
    bound = census_bound(points, [tub])
    assert bound.counts == (1, 0, 1)
    assert bound.verdict == "at-least-2N"
    assert bound.lower_bound == 2
    assert bound.expected_weighted == 4
    assert bound.per_component[0]["euler"] == 2


def test_near_degenerate_hessian_raises():
    form = torus_setup(f="cos(v) + 0.000001*cos(u)*sin(v)")
    zdata = exceptional_hamiltonian(form)
    with pytest.raises(NotMorseError):
        find_critical_points(zdata)


def test_vanishing_f_at_critical_point_raises():
    # shift the reference field so H = 0 exactly at its minima
    form = torus_setup(
        f="cos(v) + 0.3*cos(u)*sin(v) - 1.0440306508910551")
    zdata = exceptional_hamiltonian(form)
    with pytest.raises(RegularValueViolation):
        find_critical_points(zdata)


def test_locally_constant_chart_warns_and_census_rejects():
    form = torus_setup(f="1")
    zdata = exceptional_hamiltonian(form)
    warnings = []
    points = find_critical_points(zdata, warnings=warnings)
    assert points == []
    assert any(w["kind"] == "locally-constant" for w in warnings)
    with pytest.raises(MorseInequalityViolation):
        census_bound(points, [form.atlas])


def test_locally_constant_disk_chart_warns_and_run_rejects(tmp_path):
    # f = 1 on every chart: the pole disks must be skipped like the boxes,
    # not scanned as one plateau of degenerate candidates
    data = copy.deepcopy(load_scenario("sphere").data)
    for fields in data["fields"].values():
        fields["f"] = "1"
    path = tmp_path / "flat-sphere.json"
    path.write_text(json.dumps(data))
    form = scenario_form(load_scenario(str(path)))
    warnings = []
    points = find_critical_points(exceptional_hamiltonian(form),
                                  warnings=warnings)
    assert points == []
    assert sorted(w["chart"] for w in warnings
                  if w["kind"] == "locally-constant") == [
        "north", "north-pole", "south", "south-pole"]
    result = run(str(path), "critical", tmp_path / "out")
    assert result.exit_status == 1
    assert result.report["error"]["type"] == "MorseInequalityViolation"


def test_missing_saddles_violate_morse_inequalities(torus_points):
    tub, _, _, points, _ = torus_points
    extrema_only = [p for p in points if p.index != 1]
    with pytest.raises(MorseInequalityViolation):
        census_bound(extrema_only, [tub])


def test_spectrum_cross_check_catches_inconsistent_inputs(torus_points):
    tub, form, zdata, points, _ = torus_points
    # a Reeb field from a *different* form must trip the closed-form check
    other_form = torus_setup(f="cos(v) + 0.33*cos(u)*sin(v)")
    other_reeb = BReebField(other_form)
    p = _match(points, PI / 2, 0.0, tub)
    with pytest.raises(SpectrumMismatchError):
        stability_at(p, other_reeb)


def test_scan_warnings_do_not_hide_points(torus_points):
    _, _, _, points, warnings = torus_points
    # dropped Newton candidates are allowed, silent misses are not
    assert len(points) == 8
    for w in warnings:
        assert w["kind"] in ("newton-dropped", "locally-constant")


def _local_minima_loop(G, u_periodic, v_periodic):
    """Reference scan: each cell against its eight neighbours, one at a time."""
    nu, nv = G.shape
    out = []
    for i in range(nu):
        for j in range(nv):
            g0 = G[i, j]
            best = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ii, jj = i + di, j + dj
                    if u_periodic:
                        ii %= nu
                    elif not (0 <= ii < nu):
                        continue
                    if v_periodic:
                        jj %= nv
                    elif not (0 <= jj < nv):
                        continue
                    if G[ii, jj] < g0:
                        best = False
                        break
                if not best:
                    break
            if best:
                out.append((i, j))
    return out


def test_array_scan_matches_the_reference_loop():
    # values from {0, 1, 2} make plateaus common, so a non-strict comparison
    # or a lost wrap changes the candidate set
    rng = np.random.default_rng(20231)
    for _ in range(300):
        G = rng.integers(0, 3, size=rng.integers(1, 9, size=2)).astype(float)
        G[rng.random(G.shape) < 0.1] = np.inf
        G[rng.random(G.shape) < 0.1] = np.nan
        for periodic in ((False, False), (True, False), (False, True), (True, True)):
            got = [tuple(int(k) for k in ij) for ij in _local_minima_box(G, *periodic)]
            assert got == _local_minima_loop(G, *periodic), (G, periodic)


def test_edge_cells_are_the_cells_next_to_the_outside():
    inside = np.ones((4, 5), dtype=bool)
    inside[3, 4] = False
    for u_periodic, v_periodic in ((False, False), (True, False), (False, True),
                                   (True, True)):
        got = _edge_cells(inside, u_periodic, v_periodic)
        for i in range(4):
            for j in range(5):
                out = [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                       if not (u_periodic or 0 <= i + di < 4)
                       or not (v_periodic or 0 <= j + dj < 5)
                       or not inside[(i + di) % 4, (j + dj) % 5]]
                assert got[i, j] == (inside[i, j] and bool(out)), (i, j)


# A minimum of f at colatitude 0.055, between the north chart's first two
# rows (0.05 and 0.0636): its nearest sample is on the chart's edge, and the
# north-pole disk holds it far inside.  f is 2 + |(u, v) − (a, b)|² in the
# disk's coordinates (u, v) = θ (cos φ, sin φ), and the same in (θ, φ).
THETA0, PHI0 = 0.055, 0.4
A0, B0 = THETA0 * math.cos(PHI0), THETA0 * math.sin(PHI0)
NEAR_EDGE = {
    "north": f"2 + (theta*cos(phi) - {A0!r})^2 + (theta*sin(phi) - {B0!r})^2",
    "north-pole": f"2 + (u - {A0!r})^2 + (v - {B0!r})^2",
}


def _near_edge_scan(charts):
    """Scan a partial sphere atlas of the named charts only."""
    sphere = TubularChart.sphere_atlas()
    tub = TubularChart("sphere", sphere.epsilon,
                       [sphere.charts[name] for name in charts])
    zero = parse("0")
    form = BContactForm(tub, {
        name: ChartFields(parse(NEAR_EDGE[name], tub.charts[name].variables),
                          zero, zero, zero) for name in charts})
    warnings = []
    points = find_critical_points(exceptional_hamiltonian(form),
                                  warnings=warnings)
    hits = [p for p in points if tub.distance(
        "north-pole", (A0, B0), p.chart, (p.u, p.v)) < 1e-7]
    return points, hits, warnings


def test_point_in_the_overlap_next_to_an_edge_is_found_once():
    points, hits, warnings = _near_edge_scan(("north", "north-pole"))
    assert len(points) == len(hits) == 1
    assert hits[0].chart == "north-pole" and hits[0].index == 2
    assert warnings == []

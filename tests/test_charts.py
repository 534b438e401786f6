import math

import numpy as np
import pytest

from bcontactlab import charts
from bcontactlab.charts import Chart, TubularChart
from bcontactlab.contact import z_ladder
from bcontactlab.critical import _edge_cells, _scan_grid


def test_torus_wrap_and_seam_distance():
    tub = TubularChart.torus()
    chart = tub.charts["torus"]
    assert chart.wrap(2 * math.pi + 0.1, -0.1) == pytest.approx((0.1, 2 * math.pi - 0.1))
    # points facing each other across the seam are close
    d = tub.distance("torus", (0.01, 1.0), "torus", (2 * math.pi - 0.01, 1.0))
    assert d == pytest.approx(0.02, abs=1e-12)


_ARRAY_SAMPLES = {
    # the seam, from both sides, and coordinates outside the fundamental box
    "torus": {"torus": [(0.0, 0.0), (1e-3, 2 * math.pi - 1e-3),
                        (2 * math.pi - 1e-3, 1.0), (-0.5, 7.0), (3.0, 6.2)]},
    # every chart, the pole centres included
    "sphere": {"north": [(0.05, -math.pi), (0.2, 1.0), (1.7, math.pi - 1e-3)],
               "south": [(0.05, 2.0), (1.4, -math.pi), (1.0, 0.3)],
               "north-pole": [(0.0, 0.0), (0.1, -0.2), (-0.25, 0.0)],
               "south-pole": [(0.0, 0.0), (0.05, 0.21), (0.0, -0.3)]},
}


@pytest.mark.parametrize("kind", ["torus", "sphere"])
def test_distance_on_arrays_matches_pointwise(kind):
    tub = TubularChart.torus() if kind == "torus" else TubularChart.sphere_atlas()
    samples = _ARRAY_SAMPLES[kind]
    for chart_a, points_a in samples.items():
        u, v = np.array(points_a).T
        for chart_b, points_b in samples.items():
            for pb in points_b:
                pointwise = [tub.distance(chart_a, pa, chart_b, pb)
                             for pa in points_a]
                assert np.array_equal(tub.distance(chart_a, (u, v), chart_b, pb),
                                      pointwise)
                assert np.array_equal(tub.distance(chart_b, pb, chart_a, (u, v)),
                                      [tub.distance(chart_b, pb, chart_a, pa)
                                       for pa in points_a])


def test_torus_grid_omits_duplicate_endpoint():
    chart = TubularChart.torus().charts["torus"]
    u, v = chart.grid(8, 8)
    assert u[0] == 0.0 and u[-1] < 2 * math.pi
    assert len(u) == len(v) == 8


def test_z_levels_symmetric_ladder():
    tub = TubularChart.torus(epsilon=0.5)
    levels = z_ladder(tub.epsilon, 9)
    assert len(levels) == 9
    assert 0.0 in levels
    assert sorted(levels) == sorted(-l for l in levels)
    assert max(levels) == 0.5


def test_angular_transition_is_involution():
    for theta, phi in [(0.3, 1.0), (1.2, -2.5), (math.pi / 2, 3.0)]:
        t2, p2 = TubularChart.angular_transition(theta, phi)
        t3, p3 = TubularChart.angular_transition(t2, p2)
        assert (t3, p3) == pytest.approx((theta, phi))


def test_sphere_canonical_coordinates_agree_across_charts():
    tub = TubularChart.sphere_atlas()
    # a point in the equatorial overlap, seen from both angular charts
    theta, phi = 1.4, 0.7
    t2, p2 = TubularChart.angular_transition(theta, phi)
    a = tub.to_canonical("north", theta, phi)
    b = tub.to_canonical("south", t2, p2)
    assert np.allclose(a, b, atol=1e-15)
    # a point in the polar overlap, seen from the angular and the disk chart
    theta, phi = 0.2, -2.0
    c = tub.to_canonical("north", theta, phi)
    d = tub.to_canonical("north-pole", theta * math.cos(phi), theta * math.sin(phi))
    assert np.allclose(c, d, atol=1e-15)
    assert tub.distance("north", (theta, phi), "north-pole",
                        (theta * math.cos(phi), theta * math.sin(phi))) < 1e-14


def test_sphere_express_in_round_trips():
    tub = TubularChart.sphere_atlas()
    for name, uv in [("north", (1.2, 0.4)), ("south", (0.9, -2.2)),
                     ("north-pole", (0.1, -0.2)), ("south-pole", (0.05, 0.21))]:
        can = tub.to_canonical(name, *uv)
        back = tub.express_in(name, can)
        assert back == pytest.approx(uv, abs=1e-13)


def test_sphere_express_in_rejects_points_outside():
    tub = TubularChart.sphere_atlas()
    north_pole_point = tub.to_canonical("north-pole", 0.0, 0.0)
    assert tub.express_in("north", north_pole_point) is None  # inside the delta cap
    assert tub.express_in("south-pole", north_pole_point) is None
    assert tub.express_in("north-pole", north_pole_point) == pytest.approx((0.0, 0.0))


def _edge_cells_not_held(tub):
    """Per chart, the number of edge cells of its critical scan grid, and
    the edge cells that no other chart holds at least one scan cell (the
    grid cell's diagonal) inside its domain."""
    counts, loose = {}, []
    for name, chart in tub.charts.items():
        axis_u, axis_v, inside = _scan_grid(chart)
        cell = math.hypot(axis_u[1] - axis_u[0], axis_v[1] - axis_v[0])
        edge = np.argwhere(_edge_cells(inside, chart.u_periodic,
                                       chart.v_periodic))
        counts[name] = len(edge)
        for i, j in edge:
            canonical = tub.to_canonical(name, axis_u[i], axis_v[j])
            uvs = {other: tub.express_in(other, canonical)
                   for other in tub.charts if other != name}
            if not any(uv is not None and tub.charts[other].contains(
                    *uv, slack=-cell) for other, uv in uvs.items()):
                loose.append((name, float(axis_u[i]), float(axis_v[j])))
    return counts, loose


@pytest.mark.parametrize("kind, counts", [
    ("torus", {"torus": 0}),
    ("sphere", {"north": 256, "south": 256, "north-pole": 124,
                "south-pole": 124}),
], ids=["torus", "sphere"])
def test_every_scan_edge_cell_lies_inside_another_chart(kind, counts):
    # the critical scan starts no Newton iteration on an edge cell: the
    # atlas must hold each one inside another chart, which scans it there
    tub = TubularChart.torus() if kind == "torus" else TubularChart.sphere_atlas()
    assert _edge_cells_not_held(tub) == (counts, [])


def test_pole_disks_that_only_reach_the_cap_leave_edge_cells_loose(
        monkeypatch):
    monkeypatch.setattr(charts, "POLE_RADIUS", charts.POLE_CAP)
    _, loose = _edge_cells_not_held(TubularChart.sphere_atlas())
    assert {name for name, _, _ in loose} == {"north", "south", "north-pole",
                                               "south-pole"}


def test_disk_points_stay_inside_and_include_center_once():
    chart = TubularChart.sphere_atlas().charts["north-pole"]
    pts = chart.disk_points()
    assert pts.count((0.0, 0.0)) == 1
    assert all(math.hypot(u, v) <= chart.disk_radius + 1e-12 for u, v in pts)


def test_overlap_annulus_lies_in_both_angular_charts():
    tub = TubularChart.sphere_atlas()
    north, south = tub.charts["north"], tub.charts["south"]
    pts = tub.overlap_annulus()
    assert len(pts) == 8 * 16
    for theta, phi in pts:
        assert north.contains(theta, phi)
        assert south.contains(*TubularChart.angular_transition(theta, phi))


def test_disk_chart_refuses_box_grid():
    chart = Chart("cap", "u", "v", "z", (-0.3, 0.3), (-0.3, 0.3), disk_radius=0.3)
    with pytest.raises(ValueError):
        chart.grid(4, 4)

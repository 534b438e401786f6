import math

import numpy as np
import pytest

from bcontactlab.charts import Chart, TubularChart
from bcontactlab.contact import z_ladder


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


def _sphere_charts(*names):
    """The sphere atlas cut down to the named charts."""
    sphere = TubularChart.sphere_atlas()
    return TubularChart("sphere", sphere.epsilon,
                        [sphere.charts[name] for name in names])


def test_angular_theta_edges_are_held_inside_other_charts():
    north = _sphere_charts("north").charts["north"]
    lo, hi = north.u_range  # 0.05 and pi/2 + 0.2
    for theta, holder in ((lo, "north-pole"), (hi, "south")):
        assert _sphere_charts("north", holder).held_inside(
            "north", theta, 1.0, 0.05)
        # only charts other than the point's own, and only with the margin
        assert not _sphere_charts("north").held_inside(
            "north", theta, 1.0, 0.05)
    # radius 0.05 is 0.25 inside the disk's rim; south's θ' = π − θ = 1.3708
    # is 0.4 inside its upper edge
    assert not _sphere_charts("north", "north-pole").held_inside(
        "north", lo, 1.0, 0.26)
    assert not _sphere_charts("north", "south").held_inside(
        "north", hi, 1.0, 0.41)


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

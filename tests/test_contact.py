"""The frame algebra and Reeb solve against hand-derived closed forms.

Two reference setups are used throughout:

* torus, f = cos v + 0.3 cos u sin v, beta = sin v du.  Closed forms:
  alpha ∧ dalpha = −1 · du dv (dz/z), w = −1, and the Reeb field is
  (sin v − 0.3 cos u cos v, −0.3 sin u sin v, cos v).
* round sphere, f = cos θ, beta = sin²θ dφ.  In an angular chart the
  volume coefficient is sin θ (1 + cos²θ) and the Reeb field is
  (0, 1/(1 + cos²θ), 2 cos θ/(1 + cos²θ)).
"""
import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

from bcontactlab import contact
from bcontactlab.charts import TubularChart
from bcontactlab.contact import (
    BContactForm, BReebField, ChartFields, RankDeficiencyError,
    ValidationReport, contact_check, exceptional_hamiltonian, frame_values,
    reeb_residual_report, solve_reeb, verify_hamiltonian_identity, z_ladder,
)
from bcontactlab.critical import find_critical_points
from bcontactlab.beltrami import BeltramiData, contact_from_beltrami
from bcontactlab.expressions import evaluate, gradient, hessian, parse
from bcontactlab.runner import run
from bcontactlab.scenarios import load_scenario, scenario_form
from tests_fd import central_gradient


def torus_setup(f="cos(v) + 0.3*cos(u)*sin(v)", beta_u="sin(v)",
                beta_v="0", beta_z="0"):
    names = ("u", "v", "z")
    return BContactForm(TubularChart.torus(), {"torus": ChartFields(
        parse(f, names), parse(beta_u, names),
        parse(beta_v, names), parse(beta_z, names))})


@pytest.fixture(scope="module")
def sphere():
    return scenario_form(load_scenario("sphere"))


@pytest.mark.parametrize("drop, extra", [
    ("south-pole", None), (None, "equator"), ("north", "torus")])
def test_form_fields_must_name_exactly_the_atlas_charts(sphere, drop, extra):
    fields = {name: cf for name, cf in sphere.fields.items() if name != drop}
    if extra is not None:
        fields[extra] = sphere.fields["north"]
    with pytest.raises(ValueError, match="must name the charts") as info:
        BContactForm(sphere.atlas, fields)
    for name in (drop, extra):
        if name is not None:
            assert repr(name) in str(info.value)


def test_torus_volume_coefficient_is_minus_one():
    form = torus_setup()
    chart = form.atlas.charts["torus"]
    cf = form.fields["torus"]
    rng = random.Random(7)
    for _ in range(50):
        u = rng.uniform(0, 2 * math.pi)
        v = rng.uniform(0, 2 * math.pi)
        z = rng.uniform(-0.5, 0.5)
        *_, V = frame_values(cf, chart, u, v, z)
        assert V == pytest.approx(-1.0, abs=1e-12)


def test_torus_reeb_components_match_closed_form():
    form = torus_setup()
    reeb, _ = solve_reeb(form)
    rng = random.Random(8)
    for _ in range(50):
        u = rng.uniform(0, 2 * math.pi)
        v = rng.uniform(0, 2 * math.pi)
        z = rng.uniform(-0.5, 0.5)
        yu, yv, g = reeb.components(u, v, z, chart_name="torus")
        assert yu == pytest.approx(math.sin(v) - 0.3 * math.cos(u) * math.cos(v), abs=1e-10)
        assert yv == pytest.approx(-0.3 * math.sin(u) * math.sin(v), abs=1e-10)
        assert g == pytest.approx(math.cos(v), abs=1e-10)


def test_torus_reeb_accepts_arrays():
    form = torus_setup()
    reeb = BReebField(form)
    u = np.linspace(0.1, 6.2, 23)
    v = np.linspace(0.2, 5.9, 23)
    z = np.full_like(u, 0.25)
    yu, yv, g = reeb.components(u, v, z, chart_name="torus")
    assert np.allclose(yu, np.sin(v) - 0.3 * np.cos(u) * np.cos(v), atol=1e-10)
    assert np.allclose(g, np.cos(v), atol=1e-10)


def test_sphere_angular_frame_closed_forms(sphere):
    form = sphere
    chart = form.atlas.charts["north"]
    cf = form.fields["north"]
    rng = random.Random(9)
    for _ in range(40):
        th = rng.uniform(0.06, math.pi / 2 + 0.19)
        ph = rng.uniform(-math.pi, math.pi)
        z = rng.uniform(-0.5, 0.5)
        *_, V = frame_values(cf, chart, th, ph, z)
        assert V == pytest.approx(math.sin(th) * (1 + math.cos(th) ** 2), rel=1e-12)
    reeb = BReebField(form)
    th, ph = 0.8, 1.1
    yu, yv, g = reeb.components(th, ph, 0.125, chart_name="north")
    denom = 1 + math.cos(th) ** 2
    assert yu == pytest.approx(0.0, abs=1e-11)
    assert yv == pytest.approx(1.0 / denom, rel=1e-11)
    assert g == pytest.approx(2 * math.cos(th) / denom, rel=1e-11)


def test_sphere_pole_chart_reeb_is_vertical(sphere):
    form = sphere
    reeb = BReebField(form)
    yu, yv, g = reeb.components(0.0, 0.0, 0.0, chart_name="north-pole")
    assert (yu, yv) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert g == pytest.approx(1.0, abs=1e-12)
    zdata = exceptional_hamiltonian(form)
    assert zdata.w_value(0.0, 0.0, "north-pole") == pytest.approx(2.0, abs=1e-12)
    assert zdata.w_value(0.0, 0.0, "south-pole") == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("name", ["north-pole", "south-pole"])
def test_pole_frame_lanes_equal_their_float_points(sphere, name):
    """One rounding: each lane of an array evaluation of a pole chart's
    frame has the bits of the same point evaluated as floats, whatever the
    batch size, so a lane does not depend on whether its batch crossed
    ``orbits.SMALL_BATCH``.  The points reach |u|, |v| = 2, where the high
    powers of the series carry weight (inside the disk they round away)."""
    form = sphere
    frame = form.fields[name].trees(form.atlas.charts[name]).frame_function
    rng = np.random.default_rng(2501)
    for lanes in (4, 15, 16, 40):
        u, v, z = (rng.uniform(-2.0, 2.0, lanes) for _ in range(3))
        columns = np.stack(np.broadcast_arrays(*frame(u, v, z)), axis=1)
        for k in range(lanes):
            point = np.array(frame(float(u[k]), float(v[k]), float(z[k])))
            assert columns[k].tobytes() == point.tobytes(), (lanes, k)


def test_contact_check_passes_on_builtin_scenarios(sphere):
    form = torus_setup()
    report = contact_check(form)
    assert report.passed
    assert report.worst_value == pytest.approx(1.0, abs=1e-9)  # |V| = 1
    sform = sphere
    sreport = contact_check(sform)
    assert sreport.passed
    # the angular charts bottom out at theta = delta
    expected = math.sin(0.05) * (1 + math.cos(0.05) ** 2)
    assert sreport.worst_value == pytest.approx(expected, rel=1e-6)
    assert set(sreport.details["min_abs_volume_per_chart"]) == {
        "north", "south", "north-pole", "south-pole"}


def test_contact_check_fails_when_alpha_is_closed():
    form = torus_setup(f="1", beta_u="0")
    report = contact_check(form)
    assert not report.passed
    assert report.worst_value < 1e-12
    assert report.worst_location["chart"] == "torus"


def test_components_raise_on_rank_deficiency():
    # alpha∧dalpha vanishes on the circle v = π/2, where det N = 0
    form = torus_setup(f="cos(v)^3 + 2")
    reeb = BReebField(form)
    reeb.components(0.0, 1.0, 0.0, chart_name="torus")
    with pytest.raises(RankDeficiencyError):
        reeb.components(0.0, math.pi / 2, 0.0, chart_name="torus")
    with pytest.raises(RankDeficiencyError):
        reeb.components(np.zeros(3), np.array([1.0, math.pi / 2, 2.0]),
                        np.zeros(3), chart_name="torus")


def _cancelling_torus(L):
    """f = L sin v + cos v, β = sin v du: V = −1 exactly, while
    T = |A·S| + |B·Q| + |C·P| reaches about L at v = π/4."""
    return torus_setup(f=f"{L:g}*sin(v) + cos(v)", beta_u="sin(v)")


def test_relative_floor_passes_a_form_above_it():
    form = _cancelling_torus(1e6)
    chart = form.atlas.charts["torus"]
    U, V = (a.ravel() for a in np.meshgrid(*chart.grid(64, 64),
                                           indexing="ij"))
    reeb = BReebField(form)
    for z in (0.0, 0.01):
        reeb.components(U, V, np.full_like(U, z), chart_name="torus")
    assert solve_reeb(form)[0] is not None


def test_relative_floor_rejects_cancellation_in_V():
    form = _cancelling_torus(1e8)
    reeb = BReebField(form)
    floor = r"\|V\|/\(\|A·S\| \+ \|B·Q\| \+ \|C·P\|\) min .* < 1e-07"
    with pytest.raises(RankDeficiencyError, match=floor):
        reeb.components(0.3, math.pi / 4, 0.01, chart_name="torus")
    with pytest.raises(RankDeficiencyError, match=floor):
        reeb.linearization_at(0.3, math.pi / 4, chart_name="torus")
    solved, (contact_rep, residuals, identity) = solve_reeb(form)
    assert solved is None
    assert contact_rep.passed  # |V| = 1: the form is contact, but ill-posed
    chart = form.atlas.charts["torus"]
    U, V = (a.ravel() for a in np.meshgrid(*chart.grid(64, 64),
                                           indexing="ij"))
    A, B, C, P, Q, S, vol = frame_values(form.fields["torus"], chart, U, V,
                                         np.full_like(U, form.atlas.epsilon))
    k = int(np.argmin(np.abs(vol) / (abs(A * S) + abs(B * Q) + abs(C * P))))
    for report in (residuals, identity):
        where = report.worst_location
        assert not report.passed
        assert (where["u"], where["v"]) == (U[k], V[k])
        assert where["cause"].startswith("|V|/(|A·S|")


def test_closed_form_solves_the_reeb_system_symbolically():
    """(S, −Q, P)/V satisfies all four rows of M x = e₁ identically, and
    det(MᵀM) = V²(P² + Q² + S²) (Cauchy–Binet)."""
    import sympy

    A, B, C, P, Q, S = sympy.symbols("A B C P Q S", real=True)
    V = A * S - B * Q + C * P
    M = sympy.Matrix([[A, B, C], [0, -P, -Q], [P, 0, -S], [Q, S, 0]])
    x = sympy.Matrix([S, -Q, P]) / V
    assert all(sympy.cancel(r) == 0
               for r in M * x - sympy.Matrix([1, 0, 0, 0]))
    assert sympy.expand((M.T * M).det() - V**2 * (P**2 + Q**2 + S**2)) == 0


@pytest.mark.parametrize("fields", [
    {}, {"beta_u": "sin(v) + z*cos(u)", "beta_v": "0.5*cos(u)",
         "beta_z": "0.2*sin(u)"}], ids=["builtin", "beta_z"])
def test_components_match_least_squares(fields):
    form = torus_setup(**fields)
    cf = form.fields["torus"]
    chart = form.atlas.charts["torus"]
    reeb = BReebField(form)
    rng = random.Random(14)
    U, V = (np.array([rng.uniform(0, 2 * math.pi) for _ in range(50)])
            for _ in range(2))
    Z = np.array([rng.choice((-1, 1)) * rng.uniform(0.05, 0.5)
                  for _ in range(50)])

    def lstsq(u, v, z):
        A, B, C, P, Q, S, _ = frame_values(cf, chart, u, v, z)
        M = np.array([[A, B, C], [0.0, -P, -Q], [P, 0.0, -S], [Q, S, 0.0]])
        return np.linalg.lstsq(M, [1.0, 0.0, 0.0, 0.0], rcond=None)[0]

    lanes = np.column_stack(reeb.components(U, V, Z, chart_name="torus"))
    for k, (u, v, z) in enumerate(zip(U.tolist(), V.tolist(), Z.tolist())):
        ref = lstsq(u, v, z)
        for got in (np.array(reeb.components(u, v, z, chart_name="torus")),
                    lanes[k]):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_reeb_residuals_tiny_on_builtins(sphere):
    form = torus_setup()
    report = reeb_residual_report(form, grid=(48, 48, 5))
    assert report.passed and report.worst_value < 1e-9
    sform = sphere
    sreport = reeb_residual_report(sform, grid=(48, 48, 5))
    assert sreport.passed and sreport.worst_value < 1e-9


def test_reeb_residuals_flag_a_wrong_field():
    form = torus_setup()
    wrong_form = torus_setup(f="cos(v) + 0.3*cos(u)*sin(v) + 0.001*sin(u)")
    wrong_reeb = BReebField(wrong_form)
    report = reeb_residual_report(form, reeb=wrong_reeb, grid=(32, 32, 3))
    assert not report.passed
    assert report.worst_value > 1e-4


def test_hamiltonian_identity_on_builtins(sphere):
    form = torus_setup()
    report = verify_hamiltonian_identity(form)
    assert report.passed and report.worst_value < 1e-9
    sform = sphere
    sreport = verify_hamiltonian_identity(sform)
    assert sreport.passed and sreport.worst_value < 1e-9


def test_hamiltonian_value_is_minus_f(sphere):
    sform = sphere
    zdata = exceptional_hamiltonian(sform)
    assert zdata.H_value(0.7, 0.3, "north") == pytest.approx(-math.cos(0.7), rel=1e-14)
    assert zdata.H_value(0.7, 0.3, "south") == pytest.approx(math.cos(0.7), rel=1e-14)
    H_u, H_v = zdata.H_gradient(0.7, 0.3, "north")
    assert H_u == pytest.approx(math.sin(0.7), rel=1e-12)
    assert H_v == pytest.approx(0.0, abs=1e-14)


def test_contact_check_rejects_degenerate_area_form_on_Z():
    # with beta = 0 the restriction of d(alpha) to Z has no du∧dv part; on
    # z = 0 the contact volume V is the area coefficient w, so the contact
    # check fails there
    form = torus_setup(f="cos(v)", beta_u="0")
    report = contact_check(form, grid=(64, 64, 1))
    assert not report.passed
    assert report.worst_location["z"] == 0.0


def test_torus_w_is_minus_one_everywhere():
    form = torus_setup()
    zdata = exceptional_hamiltonian(form)
    U = np.linspace(0, 6.0, 40)
    V = np.linspace(0, 6.0, 40)
    w = zdata.w_value(U, V, "torus")
    assert np.allclose(np.asarray(w, dtype=float), -1.0, atol=1e-12)


def test_sphere_chart_consistency_on_overlaps(sphere):
    """H is a scalar; w and V are du∧dv densities, so polar↔Cartesian
    comparisons carry the Jacobian theta."""
    form = sphere
    zdata = exceptional_hamiltonian(form)

    # angular ↔ pole-disk overlap (delta < theta < pole radius)
    npole = form.fields["north-pole"]
    nang = form.fields["north"]
    charts = form.atlas.charts
    for theta in (0.08, 0.15, 0.28):
        for phi in (-2.0, 0.4, 2.9):
            u, v = theta * math.cos(phi), theta * math.sin(phi)
            H_a = zdata.H_value(theta, phi, "north")
            H_p = zdata.H_value(u, v, "north-pole")
            assert H_a == pytest.approx(H_p, abs=1e-13)
            w_a = zdata.w_value(theta, phi, "north")
            w_p = zdata.w_value(u, v, "north-pole")
            assert w_a == pytest.approx(theta * w_p, rel=1e-11)
            for z in (0.0, 0.25, -0.4):
                *_, V_a = frame_values(nang, charts["north"], theta, phi, z)
                *_, V_p = frame_values(npole, charts["north-pole"], u, v, z)
                assert V_a == pytest.approx(theta * V_p, rel=1e-11)

    # north ↔ south angular overlap near the equator (orientation-preserving
    # transition, so V matches without a sign)
    sang = form.fields["south"]
    for theta, phi in form.atlas.overlap_annulus(n_theta=4, n_phi=6):
        t2, p2 = TubularChart.angular_transition(theta, phi)
        assert zdata.H_value(theta, phi, "north") == pytest.approx(
            zdata.H_value(t2, p2, "south"), abs=1e-13)
        assert zdata.w_value(theta, phi, "north") == pytest.approx(
            zdata.w_value(t2, p2, "south"), rel=1e-11)
        *_, V_n = frame_values(nang, charts["north"], theta, phi, 0.3)
        *_, V_s = frame_values(sang, charts["south"], t2, p2, 0.3)
        assert V_n == pytest.approx(V_s, rel=1e-11)


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_linearization_matches_central_differences(name):
    """DR(p) against central differences of (Y_u, Y_v, g·z) at every critical point."""
    form = scenario_form(load_scenario(name))
    reeb = BReebField(form)
    points = find_critical_points(exceptional_hamiltonian(form))
    assert points
    for p in points:
        def field(x, i):
            yu, yv, g = reeb.components(*x, chart_name=p.chart)
            return (yu, yv, g * x[2])[i]

        dr = reeb.linearization_at(p.u, p.v, chart_name=p.chart)
        for i in range(3):
            fd = central_gradient(lambda x: field(x, i), (p.u, p.v, 0.0))
            for j in range(3):
                assert abs(dr[i, j] - fd[j]) / (1 + abs(dr[i, j])) < 1e-6


@pytest.mark.parametrize("fields", [
    {}, {"beta_u": "sin(v) + z*cos(u)", "beta_v": "0.5*cos(u)",
         "beta_z": "0.2*sin(u)"}], ids=["builtin", "beta_z"])
def test_linearization_off_critical_points(fields):
    """At a critical point (S, −Q, P)/V has S = Q = 0, so the x·∂V term of
    DR vanishes there; random points of Z exercise it."""
    form = torus_setup(**fields)
    reeb = BReebField(form)

    def field(x, i):
        yu, yv, g = reeb.components(*x, chart_name="torus")
        return (yu, yv, g * x[2])[i]

    rng = random.Random(15)
    for _ in range(10):
        p = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), 0.0)
        dr = reeb.linearization_at(*p[:2], chart_name="torus")
        for i in range(3):
            fd = central_gradient(lambda x: field(x, i), p)
            for j in range(3):
                assert abs(dr[i, j] - fd[j]) / (1 + abs(dr[i, j])) < 1e-6


def test_hessian_is_exactly_symmetric(sphere):
    rng = random.Random(12)
    for form in (torus_setup(), sphere):
        zdata = exceptional_hamiltonian(form)
        for chart in form.atlas.charts.values():
            r = chart.disk_radius or 2.0
            for _ in range(10):
                u, v = rng.uniform(-r, r), rng.uniform(-r, r)
                hess = zdata.H_hessian(u, v, chart.name)
                assert hess[0][1] == hess[1][0]


def test_surface_data_from_the_frame_matches_f_where_the_trees_differ():
    """With β_z ≠ 0 and z in β the frame trees C, Q, S and their partials
    are not f's own trees, yet at z = 0 they take f's values (up to the
    sign of a zero, which == ignores), on floats and on arrays alike."""
    form = torus_setup(beta_u="sin(v) + z*cos(u)", beta_v="0.5*cos(u)",
                            beta_z="0.2*sin(u)")
    cf = form.fields["torus"]
    trees = cf.trees(form.atlas.charts["torus"])
    A, B, _, P = trees.frame[:4]
    f_u, f_v = gradient(cf.f, ("u", "v"))
    assert trees.frame[4] != f_u  # the trees really differ
    hess = hessian(cf.f, ("u", "v"))
    zdata = exceptional_hamiltonian(form)
    rng = random.Random(13)
    U = np.array([rng.uniform(0, 2 * math.pi) for _ in range(50)])
    V = np.array([rng.uniform(0, 2 * math.pi) for _ in range(50)])

    def reference(u, v):
        env = {"u": u, "v": v, "z": 0.0 * u}
        f, a, b, p, fu, fv = (evaluate(t, env)
                              for t in (cf.f, A, B, P, f_u, f_v))
        return (-f, (-fu, -fv),
                tuple(tuple(-evaluate(t, env) for t in row) for row in hess),
                f * p + a * fv - b * fu)

    def got(u, v):
        return (zdata.H_value(u, v, "torus"), zdata.H_gradient(u, v, "torus"),
                zdata.H_hessian(u, v, "torus"), zdata.w_value(u, v, "torus"))

    for u, v in zip(U.tolist(), V.tolist()):
        assert got(u, v) == reference(u, v)
    H, grad, hess_got, w = got(U, V)
    H_ref, grad_ref, hess_ref, w_ref = reference(U, V)
    assert np.array_equal(H, H_ref) and np.array_equal(w, w_ref)
    assert all(np.array_equal(g, r) for g, r in zip(grad, grad_ref))
    assert all(np.array_equal(g, r) for g_row, r_row in zip(hess_got, hess_ref)
               for g, r in zip(g_row, r_row))


@pytest.mark.parametrize("nz", [1, 3, 5, 9])
def test_z_ladder_is_symmetric(nz):
    zs = z_ladder(0.5, nz)
    assert len(zs) == nz
    assert sorted(zs) == sorted(-z for z in zs)


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_validate_evaluates_each_grid_point_once(name, tmp_path, monkeypatch):
    """The validate stage hands every (chart, u, v, z) point to
    frame_values exactly once."""
    seen = []
    inner = contact.frame_values

    def counting(cf, chart, u, v, z):
        seen.append((chart.name, u, v, z))
        return inner(cf, chart, u, v, z)

    monkeypatch.setattr(contact, "frame_values", counting)
    result = run(name, "validate", tmp_path, grid=(24, 20, 5))
    assert result.exit_status == 0
    per_chart = {}
    for chart, *coords in seen:
        pts = np.column_stack(np.broadcast_arrays(
            *(np.ravel(np.asarray(c, dtype=float)) for c in coords)))
        per_chart.setdefault(chart, []).append(pts)
    evaluated = sum(len(p) for pts in per_chart.values() for p in pts)
    distinct = sum(len(np.unique(np.concatenate(pts), axis=0))
                   for pts in per_chart.values())
    assert evaluated == distinct > 0


def _walked_frame(cf, chart, u, v, z):
    """The frame evaluated tree by tree, as the walker does."""
    env = {chart.u_name: u, chart.v_name: v, chart.z_name: z}
    A, B, C, P, Q, S = [evaluate(t, env) for t in cf.trees(chart).frame]
    return A, B, C, P, Q, S, A * S - B * Q + C * P


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("name", ["torus", "beltrami"])
def test_compiled_frame_uses_no_more_memory_than_the_walker(name):
    """One compiled frame on a 256x256 slab peaks no higher than the walker
    (a quarter of one slab array of slack): each temporary is freed after
    its last use, not held until the return."""
    if name == "torus":
        form = scenario_form(load_scenario("torus"))
    else:
        form, _ = contact_from_beltrami(
            BeltramiData("cos(u) + 0.5*cos(v)"), grid=(8, 8, 3))
    cf, chart = form.fields["torus"], form.atlas.charts["torus"]
    U, V = (a.ravel() for a in np.meshgrid(*chart.grid(256, 256),
                                           indexing="ij"))
    Z = np.full_like(U, 0.125)
    cf.trees(chart)  # derive and compile outside the measurement
    walked, walker_peak = _peak_bytes(_walked_frame, cf, chart, U, V, Z)
    compiled, compiled_peak = _peak_bytes(frame_values, cf, chart, U, V, Z)
    for a, b in zip(compiled, walked):
        assert np.array_equal(a, b)
    assert compiled_peak <= walker_peak + U.nbytes / 4


# ---------------------------------------------------------------------------
# one slab for a chart whose frame reads no z

Z_TORUS = dict(beta_u="sin(v) + z*cos(u)", beta_z="0.2*sin(u)")
# V = −1 − z everywhere, so |V| is smallest on the level z = −ε
Z_TORUS_MIN_BELOW = dict(beta_z="cos(v)")
NON_CONTACT = dict(f="cos(v)^3 + 2")


def _counting_frame_values(monkeypatch):
    calls = []
    inner = contact.frame_values

    def counting(cf, chart, u, v, z):
        calls.append((chart.name, float(np.ravel(z)[0])))
        return inner(cf, chart, u, v, z)

    monkeypatch.setattr(contact, "frame_values", counting)
    return calls


def test_only_z_dependent_frames_read_z(sphere):
    form = torus_setup(**Z_TORUS)
    assert form.fields["torus"].trees(form.atlas.charts["torus"]).reads_z
    for form in (torus_setup(), sphere,
                 scenario_form(load_scenario("torus"))):
        for name in form.fields:
            assert not form.fields[name].trees(
                form.atlas.charts[name]).reads_z


def test_z_dependent_chart_keeps_the_full_sweep(monkeypatch):
    form = torus_setup(**Z_TORUS)
    calls = _counting_frame_values(monkeypatch)
    solve_reeb(form, grid=(16, 12, 9))
    assert calls == [("torus", z) for z in z_ladder(form.atlas.epsilon, 9)]


@pytest.mark.parametrize("name", ["torus", "sphere"])
def test_z_free_chart_is_evaluated_once(name, monkeypatch):
    form = scenario_form(load_scenario(name))
    calls = _counting_frame_values(monkeypatch)
    solve_reeb(form, grid=(16, 12, 9))
    first = z_ladder(form.atlas.epsilon, 9)[0]
    assert sorted(calls) == sorted((c, first) for c in form.fields)


def test_an_audited_z_dependent_field_keeps_the_full_sweep(monkeypatch):
    form = torus_setup()
    zform = torus_setup(**Z_TORUS)
    calls = _counting_frame_values(monkeypatch)
    reeb_residual_report(form, grid=(16, 12, 9))
    assert len(calls) == 2  # the form's frame and the field's, one slab
    calls.clear()
    report = reeb_residual_report(form, BReebField(zform),
                                  grid=(16, 12, 9))
    assert len(calls) == 2 * 9
    assert not report.passed


def test_worst_location_names_the_level_of_the_smallest_volume():
    form = torus_setup(**Z_TORUS_MIN_BELOW)
    report = contact_check(form, grid=(16, 12, 9))
    assert report.worst_location["z"] == -form.atlas.epsilon != z_ladder(
        form.atlas.epsilon, 9)[0]
    assert report.worst_value == pytest.approx(1.0 - form.atlas.epsilon)


def _per_level_reports(form, grid, tol=1e-9):
    """solve_reeb's (reeb is None, checks) by a plain loop that evaluates
    every (chart, z-level) slab of the grid."""
    volume, per_chart = contact._Worst(smallest=True), {}
    residual, identity = contact._Worst(), contact._Worst()
    degenerate = contact._Worst(smallest=True)
    degenerate_on_Z = contact._Worst(smallest=True)
    for chart in form.atlas.charts.values():
        cf = form.fields[chart.name]
        if chart.disk_radius > 0.0:
            U, V = np.array(chart.disk_points()).T
        else:
            U, V = (a.ravel() for a in np.meshgrid(*chart.grid(*grid[:2]),
                                                   indexing="ij"))
        for z in z_ladder(form.atlas.epsilon, grid[2]):
            A, B, C, P, Q, S, vol = frame_values(cf, chart, U, V,
                                                 np.full_like(U, z))
            volume.update(np.abs(vol), chart, U, V, z=z)
            chart_volume = per_chart.setdefault(
                chart.name, contact._Worst(smallest=True))
            chart_volume.update(np.abs(vol), chart, U, V, z=z)
            x, measure, cause = contact._solve_reeb_system(A, B, C, P, Q, S,
                                                           vol)
            if cause is not None:
                degenerate.update(measure, chart, U, V, z=z, cause=cause)
                if z == 0.0:
                    degenerate_on_Z.update(measure, chart, U, V, cause=cause)
                continue
            rows = contact._residual_rows(A, B, C, P, Q, S, *x)
            for name, row in zip(contact._RESIDUAL_NAMES, rows):
                residual.update(np.abs(row), chart, U, V, z=z, component=name)
            if z == 0.0:
                w = contact._area_coefficient(C, A, B, P, Q, S)
                for name, row in (("du", -w * x[1] - Q), ("dv", w * x[0] - S)):
                    identity.update(np.abs(row), chart, U, V, component=name)
    return not degenerate.location, [
        ValidationReport(
            "contact_check", volume.rank >= contact.CONTACT_THRESHOLD,
            contact.CONTACT_THRESHOLD, volume.value, volume.location,
            {"min_abs_volume_per_chart": {c: w.value
                                          for c, w in per_chart.items()},
             "grid": list(grid)}),
        contact._residual_report("reeb_residuals", residual, tol, grid,
                                 degenerate),
        contact._residual_report("hamiltonian_identity", identity, tol,
                                 grid[:2], degenerate_on_Z),
    ]


@pytest.mark.parametrize("case", [
    "torus", "sphere", "z-dependent", "min-below", "non-contact"])
def test_reports_equal_a_per_level_sweep(case, sphere):
    if case == "torus":
        form = scenario_form(load_scenario("torus"))
    elif case == "sphere":
        form = sphere
    else:
        form = torus_setup(**{"z-dependent": Z_TORUS,
                                   "min-below": Z_TORUS_MIN_BELOW,
                                   "non-contact": NON_CONTACT}[case])
    grid = (64, 64, 9)
    solved, expected = _per_level_reports(form, grid)
    reeb, checks = solve_reeb(form, grid)
    assert (reeb is not None) == solved == (case != "non-contact")
    assert len(checks) == len(expected)
    for got, want in zip(checks, expected):
        for f in dataclasses.fields(ValidationReport):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert contact_check(form, grid) == expected[0]

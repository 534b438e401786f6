"""End-to-end orbit tracing on the two bundled scenarios.

Reference behaviour: on the round sphere the escape set is exactly four
one-way transverse curves, two per pole (weighted total 4 = 4N); on the
torus every saddle carries a whole fan of distinct escape orbits, so the
sixteen-direction sweep returns sixteen distinct hits per saddle and the
census verdict is "infinite".
"""
import math

import numpy as np
import pytest

from bcontactlab import contact
from bcontactlab.charts import TubularChart
from bcontactlab.contact import BReebField, exceptional_hamiltonian
from bcontactlab.critical import (
    CensusBound, CriticalPoint, census_bound, find_critical_points,
    stability_at,
)
from bcontactlab.orbits import (
    EscapeOrbit, LimitReport, OrbitTrace, RegularizedState, detect_limit,
    escape_census, integrate_orbit, refinement_check, regularized_field,
    seed_plan, trace_invariant_manifolds,
)
from bcontactlab.scenarios import load_scenario, scenario_form

from tests.test_contact import torus_setup


def _components_for(tub):
    kind = "sphere" if tub.kind == "sphere-atlas" else "torus"
    return [{"kind": kind, "charts": list(tub.charts)}]


def _run(name):
    tub, form = scenario_form(load_scenario(name))
    zdata = exceptional_hamiltonian(form, tub)
    reeb = BReebField(form, tub)
    points = find_critical_points(zdata, tub)
    reports = [stability_at(p, reeb, zdata) for p in points]
    bound = census_bound(points, _components_for(tub))
    orbits = trace_invariant_manifolds(reeb, reports, tub)
    census = escape_census(orbits, bound, tub)
    return {"tub": tub, "form": form, "zdata": zdata, "reeb": reeb,
            "points": points, "reports": reports, "bound": bound,
            "orbits": orbits, "census": census}


@pytest.fixture(scope="module")
def sphere_run():
    return _run("sphere")


@pytest.fixture(scope="module")
def torus_run():
    return _run("torus")


# ---------------------------------------------------------------------------
# sphere: a finite, saddle-free census

def test_sphere_every_seed_escapes_to_its_own_pole(sphere_run):
    orbits = sphere_run["orbits"]
    assert len(orbits) == 4  # two poles, one seed per side
    for o in orbits:
        assert o.near_end.verdict == "limits-to"
        assert o.near_end.point is o.point
        assert o.near_end.distance < 1e-5
        assert o.near_end.monotone


def test_sphere_far_ends_leave_the_neighborhood(sphere_run):
    for o in sphere_run["orbits"]:
        assert o.far_end.verdict == "left-neighborhood"
        assert o.weight == 1


def test_sphere_census_matches_weighted_bound(sphere_run):
    census = sphere_run["census"]
    assert census.n_seeds == 4
    assert census.n_distinct == 4
    assert census.weighted_total == 4
    assert sphere_run["bound"].expected_weighted == 4
    assert census.verdict == "at-least-2N"
    assert census.consistent_with_bound
    assert len(census.per_point) == 2
    for rec in census.per_point:
        assert rec["n_orbits"] == 2
        assert rec["weights"] == [1, 1]


def test_sphere_refinement_is_stable(sphere_run):
    res = refinement_check(sphere_run["reeb"], sphere_run["reports"],
                           sphere_run["tub"])
    assert res["stable"]
    assert res["worst_final_shift"] < 1e-5


# ---------------------------------------------------------------------------
# torus: saddle fans witnessing the infinite family

def test_torus_every_fan_direction_converges(torus_run):
    orbits = torus_run["orbits"]
    assert len(orbits) == 72  # 4 saddles * 16 + 4 extrema * 2
    saddles = [r for r in torus_run["reports"]
               if r.kind == "hyperbolic-2d-transverse"]
    assert len(saddles) == 4
    for rep in saddles:
        fan = [o for o in orbits if o.point is rep.point]
        assert len(fan) == 16
        for o in fan:
            assert o.near_end.verdict == "limits-to"
            assert o.near_end.point is rep.point
            assert o.near_end.distance < 1e-5


def test_torus_fan_orbits_are_pairwise_distinct(torus_run):
    census = torus_run["census"]
    assert census.n_distinct == 72
    assert census.verdict == "infinite"
    assert census.consistent_with_bound
    assert all(o.weight == 1 for o in torus_run["orbits"])


def test_scalar_orbit_path_walks_no_tree(torus_run, monkeypatch):
    """Tracing an orbit evaluates the compiled frame only: the tree walker
    is never called on the RHS path."""
    calls = []
    inner = contact.evaluate

    def counting(e, env):
        calls.append(e)
        return inner(e, env)

    monkeypatch.setattr(contact, "evaluate", counting)
    fan = [o for o in torus_run["orbits"] if o.psi is not None]
    trace = integrate_orbit(torus_run["reeb"], fan[0].seed, torus_run["tub"],
                            direction=fan[0].toward.direction)
    assert trace.status == "event:reached-Z"
    assert trace.stats["n_fev"] > 0
    assert calls == []


def test_torus_refinement_is_stable(torus_run):
    res = refinement_check(torus_run["reeb"], torus_run["reports"],
                           torus_run["tub"])
    assert res["stable"]
    assert res["worst_final_shift"] < 1e-5


# ---------------------------------------------------------------------------
# seeding geometry

def test_seed_plan_rejects_zero_offset(sphere_run):
    with pytest.raises(ValueError, match="offset"):
        seed_plan(sphere_run["reports"][0], offset=0.0)


def test_extremum_seeds_sit_on_the_transverse_axis(sphere_run):
    rep = sphere_run["reports"][0]
    seeds = seed_plan(rep, offset=1e-4)
    assert [s.sigma for _, s in seeds] == [1, -1]
    for psi, s in seeds:
        assert psi is None
        assert s.u == rep.point.u and s.v == rep.point.v
        assert s.s == math.log(1e-4)


def test_saddle_fan_avoids_both_axes(torus_run):
    rep = next(r for r in torus_run["reports"]
               if r.kind == "hyperbolic-2d-transverse")
    seeds = seed_plan(rep, offset=1e-4)
    assert len(seeds) == 16
    assert sum(1 for _, s in seeds if s.sigma == 1) == 8
    for psi, s in seeds:
        # half-slot stagger keeps every seed off the z-axis and off Z
        assert abs(math.sin(psi)) > 0.09
        assert math.hypot(s.u - rep.point.u, s.v - rep.point.v) > 1e-6
        assert s.s < math.log(1e-4) + 1e-12


def test_regularized_field_needs_a_side():
    tub, form = torus_setup()
    reeb = BReebField(form, tub)
    with pytest.raises(ValueError):
        regularized_field(reeb, "torus", 0)


# ---------------------------------------------------------------------------
# verdicts on awkward inputs

def test_short_horizon_is_undecided(sphere_run):
    seed = RegularizedState("north-pole", 0.05, 0.02,
                            math.log(sphere_run["tub"].epsilon / 2), 1)
    tr = integrate_orbit(sphere_run["reeb"], seed, sphere_run["tub"],
                         direction=-1, t_max=0.01)
    assert tr.status == "reached-end"
    rep = detect_limit(tr, sphere_run["points"], sphere_run["tub"])
    assert rep.verdict == "undecided"


class _OneSidedField:
    """Delegates to a real field but refuses to evaluate below the surface."""

    def __init__(self, inner):
        self._inner = inner

    def components(self, u, v, z, chart_name=None):
        if z < 0:
            raise RuntimeError("field unavailable below the surface")
        return self._inner.components(u, v, z, chart_name=chart_name)


def test_per_seed_failures_do_not_abort_the_sweep(sphere_run):
    broken = _OneSidedField(sphere_run["reeb"])
    orbits = trace_invariant_manifolds(broken, sphere_run["reports"],
                                       sphere_run["tub"])
    assert len(orbits) == 4
    failed = [o for o in orbits if o.sigma == -1]
    fine = [o for o in orbits if o.sigma == 1]
    for o in failed:
        assert o.near_end.verdict == "integration-failed"
        assert "RuntimeError" in o.near_end.error
        assert o.toward is None and o.away is None
        assert o.weight == 0
    for o in fine:
        assert o.near_end.verdict == "limits-to"


def test_census_flags_an_incomplete_sweep(sphere_run):
    broken = _OneSidedField(sphere_run["reeb"])
    orbits = trace_invariant_manifolds(broken, sphere_run["reports"],
                                       sphere_run["tub"])
    census = escape_census(orbits, sphere_run["bound"], sphere_run["tub"])
    assert census.n_distinct == 2
    assert census.weighted_total == 2
    assert not census.consistent_with_bound
    assert census.details["non_escaping_seeds"] == 2


def _hand_orbit(chart, sigma, seed, toward=(), away=(), trace_chart=None):
    """An escaping orbit with hand-written (u, v, s) samples."""
    point = CriticalPoint(chart=chart, u=0.0, v=0.0, H=0.0, index=1,
                          hess=((1.0, 0.0), (0.0, -1.0)), f_value=1.0,
                          grad_norm=0.0)

    def trace(rows):
        rows = np.array([seed, *rows], dtype=float)
        return OrbitTrace(chart=trace_chart or chart, sigma=sigma,
                          direction=1, t=np.arange(len(rows), dtype=float),
                          y=rows, status="event:reached-Z", stats={})

    return EscapeOrbit(
        point=point, chart=chart, sigma=sigma, psi=None,
        seed=RegularizedState(chart, *seed, sigma), toward=trace(toward),
        away=trace(away), near_end=LimitReport(verdict="limits-to",
                                               point=point),
        far_end=LimitReport(verdict="left-neighborhood"), weight=1)


def test_census_drops_seeds_that_lie_on_a_kept_trajectory():
    bound = CensusBound(n_components=1, per_component=[], counts=(0, 1, 0),
                        verdict="infinite", lower_bound=2,
                        expected_weighted=None)

    def n_distinct(tub, kept, other):
        return escape_census([kept, other], bound, tub).n_distinct

    torus = TubularChart.torus()
    kept = _hand_orbit("torus", 1, (1.0, 2.0, -9.0),
                       toward=[(1.1, 2.1, -12.0), (1.2, 2.2, -15.0)],
                       away=[(0.5, 6.2, -5.0), (0.3, 2 * math.pi - 2e-7, -2.0)])
    # a seed taken from the kept orbit's away samples
    assert n_distinct(torus, kept, _hand_orbit("torus", 1, (0.5, 6.2, -5.0))) == 1
    # the same seed, moved by 2π across the seam
    seam = (0.5, 6.2 - 2 * math.pi, -5.0)
    assert n_distinct(torus, kept, _hand_orbit("torus", 1, seam)) == 1
    # a seed 4e-7 away from a sample, on the other side of the seam
    assert n_distinct(torus, kept, _hand_orbit("torus", 1, (0.3, 2e-7, -2.0))) == 1
    # the same point on the other side of Z
    assert n_distinct(torus, kept, _hand_orbit("torus", -1, (0.5, 6.2, -5.0))) == 2

    # sphere: samples stored in the pole disk, seed given in the angular
    # chart on their overlap δ < θ < 0.3
    sphere = TubularChart.sphere_atlas()
    theta, phi = 0.2, 0.7
    kept = _hand_orbit("north-pole", 1, (0.0, 0.01, -9.0),
                       away=[(theta * math.cos(phi), theta * math.sin(phi),
                              -4.0)])
    assert n_distinct(sphere, kept, _hand_orbit("north", 1, (theta, phi, -4.0))) == 1
    assert n_distinct(sphere, kept,
                      _hand_orbit("north", 1, (theta, phi + 0.01, -4.0))) == 2


# ---------------------------------------------------------------------------
# dynamical invariants

def test_time_reversal_returns_to_the_seed(sphere_run):
    tub, reeb = sphere_run["tub"], sphere_run["reeb"]
    seed = RegularizedState("north-pole", 0.05, 0.02, math.log(1e-4), 1)
    fwd = integrate_orbit(reeb, seed, tub, direction=-1, t_max=5.0)
    assert fwd.status == "reached-end"
    uf, vf, sf = map(float, fwd.final)
    back = integrate_orbit(reeb, RegularizedState("north-pole", uf, vf, sf, 1),
                           tub, direction=1, t_max=5.0)
    ub, vb, sb = map(float, back.final)
    d = tub.distance("north-pole", (ub, vb), "north-pole", (seed.u, seed.v))
    assert d < 1e-4
    assert abs(sb - seed.s) < 1e-4


def test_census_bound_scales_with_component_count():
    def pole(chart, index, sign):
        return CriticalPoint(chart=chart, u=0.0, v=0.0, H=-sign, index=index,
                             hess=((sign, 0.0), (0.0, sign)), f_value=sign,
                             grad_norm=0.0)

    points = [pole("a", 0, 1.0), pole("a", 2, -1.0),
              pole("b", 0, 1.0), pole("b", 2, -1.0)]
    comps = [{"kind": "sphere", "charts": ["a"]},
             {"kind": "sphere", "charts": ["b"]}]
    bound = census_bound(points, comps)
    assert bound.n_components == 2
    assert bound.lower_bound == 4
    assert bound.expected_weighted == 8
    assert bound.verdict == "at-least-2N"

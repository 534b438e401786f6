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

from bcontactlab import contact, rk45
from bcontactlab.charts import Chart, TubularChart
from bcontactlab.contact import BReebField, exceptional_hamiltonian
from bcontactlab.critical import (
    CensusBound, CriticalPoint, census_bound, find_critical_points,
    stability_at,
)
from bcontactlab.orbits import (
    SMALL_BATCH, EscapeOrbit, LimitReport, OrbitTrace, RegularizedState,
    _trace_lanes, detect_limit, escape_census, refinement_check, seed_plan,
    trace_invariant_manifolds,
)
from bcontactlab.scenarios import load_scenario, scenario_form

from tests.test_contact import Z_TORUS, torus_setup


def _run(name):
    tub, form = scenario_form(load_scenario(name))
    zdata = exceptional_hamiltonian(form, tub)
    reeb = BReebField(form, tub)
    points = find_critical_points(zdata, tub)
    reports = [stability_at(p, reeb, zdata) for p in points]
    bound = census_bound(points, [tub])
    orbits = trace_invariant_manifolds(reeb, reports, tub)
    census = escape_census(orbits, bound, tub)
    return {"tub": tub, "form": form, "zdata": zdata, "reeb": reeb,
            "points": points, "reports": reports, "bound": bound,
            "orbits": orbits, "census": census}


def _trace_one(reeb, seed, tub, direction=1):
    """One seed's trace, or the exception that ended it: a batch of one
    lane."""
    trace, = _trace_lanes(reeb, tub, seed.chart, np.array([seed.sigma]),
                          np.array([[seed.u, seed.v, seed.s]]),
                          np.array([direction]), 1e-10, 1e-12)
    return trace


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
    trace = _trace_one(torus_run["reeb"], fan[0].seed, torus_run["tub"],
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

def test_extremum_seeds_sit_on_the_transverse_axis(sphere_run):
    rep = sphere_run["reports"][0]
    seeds = seed_plan(rep)
    assert [s.sigma for _, s in seeds] == [1, -1]
    for psi, s in seeds:
        assert psi is None
        assert s.u == rep.point.u and s.v == rep.point.v
        assert s.s == math.log(1e-4)


def test_saddle_fan_avoids_both_axes(torus_run):
    rep = next(r for r in torus_run["reports"]
               if r.kind == "hyperbolic-2d-transverse")
    seeds = seed_plan(rep)
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
    with pytest.raises(ValueError, match="sigma"):
        _trace_one(reeb, RegularizedState("torus", 0.1, 0.2, -5.0, 0), tub)
    with pytest.raises(ValueError, match="sigma"):  # one bad lane in a batch
        _trace_lanes(reeb, tub, "torus", np.array([1, -1, 2]),
                     np.full((3, 3), -5.0), np.array([1, 1, -1]), 1e-10,
                     1e-12)


# ---------------------------------------------------------------------------
# verdicts on awkward inputs

def test_short_horizon_is_undecided(sphere_run, monkeypatch):
    seed = RegularizedState("north-pole", 0.05, 0.02,
                            math.log(sphere_run["tub"].epsilon / 2), 1)
    monkeypatch.setattr("bcontactlab.orbits.T_MAX", 0.01)
    tr = _trace_one(sphere_run["reeb"], seed, sphere_run["tub"], direction=-1)
    assert tr.status == "reached-end"
    rep = detect_limit(tr, sphere_run["points"], sphere_run["tub"])
    assert rep.verdict == "undecided"


class _OneSidedField:
    """Delegates to a real field but refuses to evaluate below the surface."""

    def __init__(self, inner):
        self._inner = inner

    def components(self, u, v, z, chart_name=None):
        if np.any(np.asarray(z) < 0):
            raise RuntimeError("field unavailable below the surface")
        return self._inner.components(u, v, z, chart_name=chart_name)


def test_per_seed_failures_do_not_abort_the_sweep(sphere_run):
    broken = _OneSidedField(sphere_run["reeb"])
    orbits = trace_invariant_manifolds(broken, sphere_run["reports"],
                                       sphere_run["tub"])
    assert len(orbits) == 4
    failed = [o for o in orbits if o.seed.sigma == -1]
    fine = [o for o in orbits if o.seed.sigma == 1]
    for o in failed:
        assert o.near_end.verdict == "integration-failed"
        assert "RuntimeError" in o.near_end.error
        assert o.toward is None and o.away is None
        assert o.weight == 0
    for o in fine:
        assert o.near_end.verdict == "limits-to"


class _PoisonedField:
    """Delegates to a real field but raises for any batch holding one seed."""

    def __init__(self, inner, seed):
        self._inner, self._seed = inner, seed

    def components(self, u, v, z, chart_name=None):
        at = ((np.asarray(u) == self._seed.u) & (np.asarray(v) == self._seed.v)
              & (np.sign(z) == self._seed.sigma))
        if np.any(at):
            raise RuntimeError("poisoned point")
        return self._inner.components(u, v, z, chart_name=chart_name)


def test_a_seed_whose_field_raises_fails_alone(torus_run):
    reference = torus_run["orbits"]
    victim = [o for o in reference if o.psi is not None][5].seed
    broken = _PoisonedField(torus_run["reeb"], victim)
    orbits = trace_invariant_manifolds(broken, torus_run["reports"],
                                       torus_run["tub"])
    assert len(orbits) == len(reference)
    for o, ref in zip(orbits, reference):
        assert o.seed == ref.seed
        if o.seed == victim:
            assert o.near_end.verdict == "integration-failed"
            assert o.near_end.error == "RuntimeError: poisoned point"
            assert o.toward is None and o.away is None and o.weight == 0
            continue
        for got, want in ((o.toward, ref.toward), (o.away, ref.away)):
            assert np.array_equal(got.y, want.y)
            assert got.stats == want.stats
        assert o.near_end == ref.near_end and o.far_end == ref.far_end


def test_a_raising_batch_is_traced_again_in_halves(torus_run, monkeypatch):
    # the victim's two lanes (toward and away) raise among the 144 of the
    # torus batch; halving finds each in about 2·log2(144) runs, where a
    # retrace lane by lane takes 1 + 144
    victim = [o for o in torus_run["orbits"] if o.psi is not None][5].seed
    calls = _integrate_calls(monkeypatch)
    orbits = trace_invariant_manifolds(
        _PoisonedField(torus_run["reeb"], victim), torus_run["reports"],
        torus_run["tub"])
    assert calls[0][0] == 144
    assert len(calls) <= 4 * math.ceil(math.log2(144)) + 1
    assert [o.seed for o in orbits
            if o.near_end.verdict == "integration-failed"] == [victim]


def test_traced_lanes_equal_one_seed_runs(torus_run):
    for o in torus_run["orbits"]:
        for trace in (o.toward, o.away):
            one = _trace_one(torus_run["reeb"], o.seed, torus_run["tub"],
                             direction=trace.direction)
            assert np.array_equal(one.t, trace.t)
            assert np.array_equal(one.y, trace.y)
            assert one.status == trace.status
            assert one.stats == trace.stats


def _integrate_calls(monkeypatch):
    """The lane count and per-lane values of each orbit integration."""
    calls = []

    def counting(f, y0, *args, **kwargs):
        calls.append((len(y0), kwargs.get("per_lane")))
        return rk45.integrate(f, y0, *args, **kwargs)

    monkeypatch.setattr("bcontactlab.orbits.integrate", counting)
    return calls


def test_torus_trace_batches_the_field(torus_run, sphere_run, monkeypatch):
    class Counting:
        calls = 0

        def components(self, u, v, z, chart_name=None):
            Counting.calls += 1
            return torus_run["reeb"].components(u, v, z, chart_name=chart_name)

    calls = _integrate_calls(monkeypatch)
    trace_invariant_manifolds(Counting(), torus_run["reports"],
                              torus_run["tub"])
    assert Counting.calls < 1000   # one call per seed and stage: 15.8k
    # one batch per chart that holds seeds, both sides of Z in it
    assert len(calls) == 1
    assert sorted(set(calls[0][1].tolist())) == [-1, 1]
    calls.clear()
    trace_invariant_manifolds(sphere_run["reeb"], sphere_run["reports"],
                              sphere_run["tub"])
    assert len({p.chart for p in sphere_run["points"]}) == len(calls) == 2
    assert [sorted(sides.tolist()) for _, sides in calls] == [[-1, -1, 1, 1]] * 2


def test_z_reading_torus_lanes_equal_one_seed_runs(monkeypatch):
    # the frame reads z, so a lane traced on the other side's σ would move
    # differently; the lanes end at different steps, so the batch is
    # compacted many times before its last lane ends
    tub, form = torus_setup(**Z_TORUS)
    zdata = exceptional_hamiltonian(form, tub)
    reeb = BReebField(form, tub)
    reports = [stability_at(p, reeb, zdata)
               for p in find_critical_points(zdata, tub)]
    calls = _integrate_calls(monkeypatch)
    traced = trace_invariant_manifolds(reeb, reports, tub, n_fan=4)
    monkeypatch.undo()
    (lanes, sides), = calls
    assert lanes >= SMALL_BATCH and sorted(set(sides.tolist())) == [-1, 1]
    assert len({len(o.toward.t) for o in traced}) > 4
    for o in traced:
        for trace in (o.toward, o.away):
            assert trace.sigma == o.seed.sigma
            one = _trace_one(reeb, o.seed, tub, direction=trace.direction)
            assert np.array_equal(one.t, trace.t)
            assert np.array_equal(one.y, trace.y)
            assert one.status == trace.status
            assert one.stats == trace.stats


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
                          hess=((1.0, 0.0), (0.0, -1.0)), f=1.0,
                          grad_norm=0.0)

    def trace(rows):
        rows = np.array([seed, *rows], dtype=float)
        return OrbitTrace(chart=trace_chart or chart, sigma=sigma,
                          direction=1, t=np.arange(len(rows), dtype=float),
                          y=rows, status="event:reached-Z", stats={})

    return EscapeOrbit(
        point=point, psi=None, seed=RegularizedState(chart, *seed, sigma),
        toward=trace(toward),
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

def test_time_reversal_returns_to_the_seed(sphere_run, monkeypatch):
    tub, reeb = sphere_run["tub"], sphere_run["reeb"]
    seed = RegularizedState("north-pole", 0.05, 0.02, math.log(1e-4), 1)
    monkeypatch.setattr("bcontactlab.orbits.T_MAX", 5.0)
    fwd = _trace_one(reeb, seed, tub, direction=-1)
    assert fwd.status == "reached-end"
    uf, vf, sf = map(float, fwd.final)
    back = _trace_one(reeb, RegularizedState("north-pole", uf, vf, sf, 1),
                      tub, direction=1)
    ub, vb, sb = map(float, back.final)
    d = tub.distance("north-pole", (ub, vb), "north-pole", (seed.u, seed.v))
    assert d < 1e-4
    assert abs(sb - seed.s) < 1e-4


def test_census_bound_scales_with_component_count():
    def pole(chart, index, sign):
        return CriticalPoint(chart=chart, u=0.0, v=0.0, H=-sign, index=index,
                             hess=((sign, 0.0), (0.0, sign)), f=sign,
                             grad_norm=0.0)

    points = [pole("a", 0, 1.0), pole("a", 2, -1.0),
              pole("b", 0, 1.0), pole("b", 2, -1.0)]
    comps = [TubularChart("sphere", 0.5, [Chart(name, "u", "v", "z",
                                                (0.0, 1.0), (0.0, 1.0))])
             for name in ("a", "b")]
    bound = census_bound(points, comps)
    assert bound.n_components == 2
    assert bound.lower_bound == 4
    assert bound.expected_weighted == 8
    assert bound.verdict == "at-least-2N"

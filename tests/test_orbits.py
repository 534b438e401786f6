"""End-to-end orbit tracing on the two bundled scenarios.

Reference behaviour: on the round sphere the escape set is exactly four
one-way transverse curves, two per pole (weighted total 4 = 4N); on the
torus every saddle carries a whole fan of distinct escape orbits, so the
sixteen-direction sweep returns sixteen distinct hits per saddle and the
census verdict is "infinite".
"""
import copy
import json
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
    MATCH_TOL, SMALL_BATCH, EscapeOrbit, LimitReport, OrbitTrace,
    RegularizedState, _distinct, _trace_lanes, detect_limit, escape_census,
    refinement_check, regularized_field, seed_plan, trace_invariant_manifolds,
)
from bcontactlab.scenarios import load_scenario, scenario_form

from tests.test_contact import Z_TORUS, torus_setup


def _run(name):
    form = scenario_form(load_scenario(name))
    zdata = exceptional_hamiltonian(form)
    reeb = BReebField(form)
    points = find_critical_points(zdata)
    reports = [stability_at(p, reeb) for p in points]
    bound = census_bound(points, [form.atlas])
    orbits = trace_invariant_manifolds(reeb, reports)
    census = escape_census(orbits, bound, form.atlas)
    return {"tub": form.atlas, "form": form, "zdata": zdata, "reeb": reeb,
            "points": points, "reports": reports, "bound": bound,
            "orbits": orbits, "census": census}


def _trace_one(reeb, seed, direction=1):
    """One seed's trace, or the exception that ended it: a batch of one
    lane."""
    trace, = _trace_lanes(reeb, seed.chart, np.array([seed.sigma]),
                          np.array([[seed.u, seed.v, seed.s]]),
                          np.array([direction]), None, None)
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
    res = refinement_check(sphere_run["reeb"], sphere_run["reports"])
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
    trace = _trace_one(torus_run["reeb"], fan[0].seed,
                       direction=fan[0].toward.direction)
    assert trace.status == "event:reached-Z"
    assert trace.n_fev > 0
    assert calls == []


def test_torus_refinement_is_stable(torus_run):
    res = refinement_check(torus_run["reeb"], torus_run["reports"])
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


@pytest.mark.parametrize("n_fan", [1, 3, 5, 17])
def test_an_odd_fan_is_refused(torus_run, n_fan):
    # slot k = (n - 1)/2 of an odd fan is psi = pi: z = 1e-4·sin(pi), on Z
    rep = next(r for r in torus_run["reports"]
               if r.kind == "hyperbolic-2d-transverse")
    with pytest.raises(ValueError, match="n_fan must be even"):
        seed_plan(rep, n_fan=n_fan)


def test_the_cut_comes_from_the_atlas_of_the_form(tmp_path):
    payload = copy.deepcopy(load_scenario("torus").data)
    payload["epsilon"] = 0.3
    path = tmp_path / "torus-eps.json"
    path.write_text(json.dumps(payload))
    form = scenario_form(load_scenario(str(path)))
    assert form.atlas.epsilon == 0.3
    reeb = BReebField(form)
    reports = [stability_at(p, reeb) for p in
               find_critical_points(exceptional_hamiltonian(form))]
    orbits = trace_invariant_manifolds(reeb, reports, n_fan=4)
    cut = math.log(1e-8 * 0.3)
    assert len(orbits) == 4 * 2 + 4 * 4
    for o in orbits:
        assert o.toward.status == "event:reached-Z"
        assert o.toward.final[2] == pytest.approx(cut, abs=1e-12)


def _rhs_both_paths(form, monkeypatch):
    """The torus chart's right-hand side on ``SMALL_BATCH`` + 3 lanes on
    both sides of Z, at s and at s + 1: one array call each, then point by
    point on floats."""
    rng = np.random.default_rng(3)
    n = SMALL_BATCH + 3
    y = np.column_stack([rng.uniform(0.0, 2 * math.pi, (n, 2)),
                         rng.uniform(-20.0, -1.0, n)])
    sigma = np.where(np.arange(n) % 2, 1, -1)
    rhs = regularized_field(BReebField(form), "torus")
    shifted = y + [0.0, 0.0, 1.0]
    array = [rhs(0.0, y, sigma), rhs(0.0, shifted, sigma)]
    monkeypatch.setattr("bcontactlab.orbits.SMALL_BATCH", n + 1)
    return array, [rhs(0.0, y, sigma), rhs(0.0, shifted, sigma)]


def test_array_rhs_equals_the_float_path_where_no_frame_reads_z(monkeypatch):
    form = scenario_form(load_scenario("torus"))
    assert not form.fields["torus"].trees(form.atlas.charts["torus"]).reads_z
    array, floats = _rhs_both_paths(form, monkeypatch)
    assert [a.tobytes() for a in array] == [f.tobytes() for f in floats]


def test_array_rhs_reads_z_where_the_frame_does(monkeypatch):
    (at_s, at_s1), floats = _rhs_both_paths(torus_setup(**Z_BETA_U),
                                            monkeypatch)
    assert not np.any(np.all(at_s == at_s1, axis=1))
    assert np.array_equal(at_s, floats[0]) and np.array_equal(at_s1, floats[1])


def test_regularized_field_needs_a_side():
    form = torus_setup()
    reeb = BReebField(form)
    with pytest.raises(ValueError, match="sigma"):
        _trace_one(reeb, RegularizedState("torus", 0.1, 0.2, -5.0, 0))
    with pytest.raises(ValueError, match="sigma"):  # one bad lane in a batch
        _trace_lanes(reeb, "torus", np.array([1, -1, 2]),
                     np.full((3, 3), -5.0), np.array([1, 1, -1]), 1e-10,
                     1e-12)


# ---------------------------------------------------------------------------
# verdicts on awkward inputs

def test_short_horizon_is_undecided(sphere_run, monkeypatch):
    seed = RegularizedState("north-pole", 0.05, 0.02,
                            math.log(sphere_run["tub"].epsilon / 2), 1)
    monkeypatch.setattr("bcontactlab.orbits.T_MAX", 0.01)
    tr = _trace_one(sphere_run["reeb"], seed, direction=-1)
    assert tr.status == "reached-end"
    rep = detect_limit(tr, sphere_run["points"], sphere_run["tub"])
    assert rep.verdict == "undecided"


class _OneSidedField:
    """Delegates to a real field but refuses to evaluate below the surface."""

    def __init__(self, inner):
        self._inner = inner
        self.form = inner.form

    def components(self, u, v, z, chart_name=None):
        if np.any(np.asarray(z) < 0):
            raise RuntimeError("field unavailable below the surface")
        return self._inner.components(u, v, z, chart_name=chart_name)


def test_per_seed_failures_do_not_abort_the_sweep(sphere_run):
    broken = _OneSidedField(sphere_run["reeb"])
    orbits = trace_invariant_manifolds(broken, sphere_run["reports"])
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
        self.form = inner.form

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
    orbits = trace_invariant_manifolds(broken, torus_run["reports"])
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
            assert got.stats_dict() == want.stats_dict()
        assert o.near_end == ref.near_end and o.far_end == ref.far_end


def test_a_raising_batch_is_traced_again_in_halves(torus_run, monkeypatch):
    # the victim's two lanes (toward and away) raise among the 144 of the
    # torus batch; halving finds each in about 2·log2(144) runs, where a
    # retrace lane by lane takes 1 + 144
    victim = [o for o in torus_run["orbits"] if o.psi is not None][5].seed
    calls = _integrate_calls(monkeypatch)
    orbits = trace_invariant_manifolds(
        _PoisonedField(torus_run["reeb"], victim), torus_run["reports"])
    assert calls[0][0] == 144
    assert len(calls) <= 4 * math.ceil(math.log2(144)) + 1
    assert [o.seed for o in orbits
            if o.near_end.verdict == "integration-failed"] == [victim]


def test_traced_lanes_equal_one_seed_runs(torus_run):
    for o in torus_run["orbits"]:
        for trace in (o.toward, o.away):
            one = _trace_one(torus_run["reeb"], o.seed,
                             direction=trace.direction)
            assert np.array_equal(one.t, trace.t)
            assert np.array_equal(one.y, trace.y)
            assert one.status == trace.status
            assert one.stats_dict() == trace.stats_dict()


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
        form = torus_run["reeb"].form

        def components(self, u, v, z, chart_name=None):
            Counting.calls += 1
            return torus_run["reeb"].components(u, v, z, chart_name=chart_name)

    calls = _integrate_calls(monkeypatch)
    trace_invariant_manifolds(Counting(), torus_run["reports"])
    assert Counting.calls < 1000   # one call per seed and stage: 15.8k
    # one batch per chart that holds seeds, both sides of Z in it
    assert len(calls) == 1
    assert sorted(set(calls[0][1].tolist())) == [-1, 1]
    calls.clear()
    trace_invariant_manifolds(sphere_run["reeb"], sphere_run["reports"])
    assert len({p.chart for p in sphere_run["points"]}) == len(calls) == 2
    assert [sorted(sides.tolist()) for _, sides in calls] == [[-1, -1, 1, 1]] * 2


def test_z_reading_torus_lanes_equal_one_seed_runs(monkeypatch):
    # the frame reads z, so a lane traced on the other side's σ would move
    # differently; the lanes end at different steps, so the batch is
    # compacted many times before its last lane ends
    form = torus_setup(**Z_TORUS)
    zdata = exceptional_hamiltonian(form)
    reeb = BReebField(form)
    reports = [stability_at(p, reeb)
               for p in find_critical_points(zdata)]
    calls = _integrate_calls(monkeypatch)
    traced = trace_invariant_manifolds(reeb, reports, n_fan=4)
    monkeypatch.undo()
    (lanes, sides), = calls
    assert lanes >= SMALL_BATCH and sorted(set(sides.tolist())) == [-1, 1]
    assert len({len(o.toward.t) for o in traced}) > 4
    for o in traced:
        for trace in (o.toward, o.away):
            assert trace.sigma == o.seed.sigma
            one = _trace_one(reeb, o.seed, direction=trace.direction)
            assert np.array_equal(one.t, trace.t)
            assert np.array_equal(one.y, trace.y)
            assert one.status == trace.status
            assert one.stats_dict() == trace.stats_dict()


def test_census_flags_an_incomplete_sweep(sphere_run):
    broken = _OneSidedField(sphere_run["reeb"])
    orbits = trace_invariant_manifolds(broken, sphere_run["reports"])
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
        return OrbitTrace(t=np.arange(len(rows), dtype=float), y=rows,
                          status="event:reached-Z", n_steps=len(rows) - 1,
                          n_rejected=0, n_fev=0, min_step=1.0, max_step=1.0,
                          chart=trace_chart or chart, sigma=sigma, direction=1)

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


def _stacked_distinct(orbits, tub):
    """The census's kept orbits by the loop the sorted sweep replaced, its
    reference: each seed is one distance call per (σ, chart) stack of the
    samples of the orbits kept before it."""
    distinct = []
    stacks = {}   # (sigma, chart) -> (u, v, s) samples of the kept orbits
    for orbit in orbits:
        if orbit.near_end.verdict != "limits-to":
            continue
        sb = orbit.seed
        if any(np.any(tub.distance(sb.chart, (sb.u, sb.v), chart,
                                   (rows[:, 0], rows[:, 1]))
                      + np.abs(rows[:, 2] - sb.s) < MATCH_TOL)
               for (sigma, chart), rows in stacks.items()
               if sigma == sb.sigma):
            continue
        distinct.append(orbit)
        for trace in (orbit.toward, orbit.away):
            key = (sb.sigma, trace.chart)
            stacks[key] = np.concatenate([stacks.get(key, np.empty((0, 3))),
                                          trace.y])
    return distinct


def _kept_by_both(orbits, tub):
    """The kept orbits of the sorted sweep, asserted equal to the loop's."""
    kept = _distinct([o for o in orbits if o.near_end.verdict == "limits-to"],
                     tub)
    assert [id(o) for o in kept] == [id(o) for o in
                                     _stacked_distinct(orbits, tub)]
    return kept


# the torus builtin with a frame that reads z
Z_BETA_U = dict(beta_u="sin(v) + 0.3*z*cos(u)")


@pytest.mark.parametrize("form, n_fan, n_distinct", [
    ("torus", 16, 72), ("torus", 64, 248), ("sphere", None, 4),
    (Z_BETA_U, None, 64),
], ids=["torus-seeds-16", "torus-seeds-64", "sphere", "torus-z-beta_u"])
def test_sorted_sweep_keeps_what_the_stacked_loop_keeps(form, n_fan,
                                                        n_distinct):
    # the sphere's seeds and samples lie on different charts; at 64 seeds
    # a fan's seeds lie on each other's trajectories
    form = (torus_setup(**form) if isinstance(form, dict)
            else scenario_form(load_scenario(form)))
    reeb = BReebField(form)
    reports = [stability_at(p, reeb)
               for p in find_critical_points(exceptional_hamiltonian(form))]
    orbits = trace_invariant_manifolds(reeb, reports, n_fan=n_fan)
    assert len(_kept_by_both(orbits, form.atlas)) == n_distinct


def test_sorted_sweep_matches_a_sample_three_quarters_of_match_tol_away():
    # each seed lies 1e-9 from a kept sample on the surface and 0.75·MATCH_TOL
    # from it in s, above it on one side of Z and below it on the other, so
    # a window narrower than that keeps the seed
    ds = 0.75 * MATCH_TOL
    above = _hand_orbit("torus", 1, (1.0, 2.0, -9.0),
                        toward=[(1.5, 2.5, -12.0 + ds)])
    below = _hand_orbit("torus", -1, (3.0, 2.0, -9.0),
                        away=[(4.0, 1.0, -7.0 - ds)])
    on_above = _hand_orbit("torus", 1, (1.5 + 1e-9, 2.5, -12.0))
    on_below = _hand_orbit("torus", -1, (4.0, 1.0 - 1e-9, -7.0))
    # the first sample again, on the other side of Z
    across = _hand_orbit("torus", -1, (1.5, 2.5, -12.0 + ds))
    orbits = [above, below, on_above, on_below, across]
    kept = _kept_by_both(orbits, TubularChart.torus())
    assert [id(o) for o in kept] == [id(orbits[k]) for k in (0, 1, 4)]


# ---------------------------------------------------------------------------
# dynamical invariants

def test_time_reversal_returns_to_the_seed(sphere_run, monkeypatch):
    tub, reeb = sphere_run["tub"], sphere_run["reeb"]
    seed = RegularizedState("north-pole", 0.05, 0.02, math.log(1e-4), 1)
    monkeypatch.setattr("bcontactlab.orbits.T_MAX", 5.0)
    fwd = _trace_one(reeb, seed, direction=-1)
    assert fwd.status == "reached-end"
    uf, vf, sf = map(float, fwd.final)
    back = _trace_one(reeb, RegularizedState("north-pole", uf, vf, sf, 1),
                      direction=1)
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

"""Tracing escape orbits of the Reeb field in the punctured neighborhood.

Away from the surface Z = {z = 0} the field is (Y_u, Y_v, g·z).  Orbits can
reach Z only asymptotically, so the z-direction is integrated on a
logarithmic scale: with z = σ e^s (σ = ±1 the side of the surface) the
equations become

    u' = Y_u(u, v, σ e^s),  v' = Y_v(u, v, σ e^s),  s' = g(u, v, σ e^s),

which is smooth down to s → −∞.  An orbit "escapes to Z at p" when s falls
below a cut (|z| below 1e−8·ε) while (u, v) settles within tolerance of a
critical point p of the surface Hamiltonian; it "leaves the neighborhood"
when |z| climbs back to ε.

Seeding near a critical point follows the linearization: extrema of H have
a one-dimensional transverse invariant curve tangent to the z-axis (two
seeds, one per side), saddles a two-dimensional invariant surface spanned
by the z-axis and the tangential eigenvector whose eigenvalue matches the
sign of λ_z = g(p) (a fan of seeds in that plane, avoiding the axes).
The z-axis is tangent to those manifolds only where the frame reads no z,
that is where c = ∂_z(Y_u, Y_v)(p) = 0; otherwise the transverse direction
is (w, 1) with (T − λ_z I) w = −c, and these seeds start off the manifold
at first order in ``OFFSET`` (ROADMAP item 17).

Tracing runs in one batch per chart: every seed on that chart, on both
sides of Z, toward and away, is one lane of a single
:func:`~bcontactlab.rk45.integrate` call, which hands the field each live
lane's σ.  The field is evaluated once per stage for all of them, and each
lane takes the steps its own run would.  A lane that fails
(``NonFiniteState``, ``StepSizeUnderflow``, the step budget) fails alone.
When the field raises for a batch, each half is traced again the same
way, so a seed whose field raises fails alone, with the message a
one-seed trace gives, after about 2·log₂(lanes) runs per raising lane.
A traced lane is an :class:`OrbitTrace`: the lane's ``rk45.Trajectory``,
work counters included, with its chart, side σ and direction.
"""
from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from . import rk45
from .rk45 import Event, Trajectory, integrate

__all__ = [
    "RegularizedState", "OrbitTrace", "LimitReport", "EscapeOrbit",
    "EscapeCensus", "regularized_field", "detect_limit", "seed_plan",
    "trace_invariant_manifolds", "escape_census", "refinement_check",
]

OFFSET = 1e-4            # seed displacement from the critical point
N_FAN = 16               # seeds in a saddle fan
Z_CUT_FACTOR = 1e-8      # |z| < factor·ε counts as "reached Z"
POSITION_TOL = 1e-5      # tangential closeness for a limit claim
T_MAX = 400.0            # time budget per trace
MATCH_TOL = 1e-6         # seed-on-trajectory distance for orbit identity
CHART_SLACK = 0.05       # a trace ends "left-chart" this far outside its chart
TAIL_WINDOW = 0.1        # share of a trace's samples the monotone test reads
REFINEMENT_FACTOR = 10.0  # tolerance tightening of refinement_check
# Fewer lanes than this evaluate the field point by point on floats: one
# array call costs what 11 (`north`) to 12 (torus) float points do, and 20
# to 21 on a pole chart (tools/small_batch_sweep.py).  A speed constant:
# on a field of arithmetic and integer powers both paths give the same bits.
SMALL_BATCH = 16


@dataclass(frozen=True)
class RegularizedState:
    """A point of the punctured neighborhood in log-transverse coordinates."""

    chart: str
    u: float
    v: float
    s: float     # log |z|
    sigma: int   # ±1, the side of Z


@dataclass
class OrbitTrace(Trajectory):
    """One integrated arc: its lane's trajectory, y in columns (u, v, s)."""

    chart: str
    sigma: int
    direction: int

    @property
    def final(self):
        return self.y[-1]


@dataclass
class LimitReport:
    verdict: str          # limits-to | left-neighborhood | undecided |
    #                       integration-failed
    point: object = None  # CriticalPoint for limits-to verdicts
    distance: float = math.inf  # final tangential distance to that point
    monotone: bool = False      # distance non-increasing over the final window
    backslide: float = 0.0      # worst distance increase seen in that window
    final_state: tuple = ()
    error: str | None = None


@dataclass
class EscapeOrbit:
    """A traced orbit near a critical point, both ends classified."""

    point: object          # the critical point it was seeded at
    psi: float | None      # fan angle for saddle seeds, None for extrema
    seed: RegularizedState
    # time direction in which |z| shrinks, and the opposite one
    toward: OrbitTrace = field(metadata={"report": False})
    away: OrbitTrace = field(metadata={"report": False})
    near_end: LimitReport
    far_end: LimitReport
    weight: int            # ends that limit onto Z (1 = one-way, 2 = both)


@dataclass
class EscapeCensus:
    n_seeds: int
    n_distinct: int
    weighted_total: int
    per_point: list  # {point, n_orbits, weights}, by (chart, u, v)
    verdict: str                 # copied from the critical-point bound
    consistent_with_bound: bool
    details: dict


# ---------------------------------------------------------------------------
# fields

def regularized_field(reeb, chart_name):
    """Right-hand side ``rhs(t, y, sigma)`` for lanes of states (u, v, s),
    shape (lanes, 3), with z = σ e^s and ``sigma`` the lanes' sides (±1).

    Fewer than ``SMALL_BATCH`` lanes are evaluated point by point on
    floats, more in one array call; the two give the same bits wherever
    numpy's elementwise functions do what libm does (``sin`` and ``cos``
    here).  Arithmetic and integer powers, which are multiplication chains,
    round alike on both paths.  Where no frame tree of the chart reads z,
    the array call takes the lanes' sides for z, which the frame never
    reads, and skips their exponentials.
    """
    form = reeb.form
    reads_z = form.fields[chart_name].trees(
        form.atlas.charts[chart_name]).reads_z

    def rhs(t, y, sigma):
        if len(y) < SMALL_BATCH:
            return np.array([reeb.components(u, v, side * math.exp(s),
                                             chart_name=chart_name)
                             for (u, v, s), side in zip(y.tolist(),
                                                        sigma.tolist())])
        if reads_z:
            # libm's exp, as the float path takes it: numpy's exp differs by
            # an ulp on some arguments
            z = np.array([side * math.exp(s) for s, side in zip(
                y[:, 2].tolist(), sigma.tolist())])
        else:
            z = sigma.astype(float)
        out = np.empty(y.shape)
        out[:, 0], out[:, 1], out[:, 2] = reeb.components(
            y[:, 0], y[:, 1], z, chart_name=chart_name)
        return out

    return rhs


# ---------------------------------------------------------------------------
# tracing

def _chart_guard(chart):
    def stop(t, y):
        inside = chart.contains(y[:, 0], y[:, 1], slack=CHART_SLACK)
        if np.all(inside):
            return None
        return [None if ok else "left-chart" for ok in inside.tolist()]

    return stop


def _trace_lanes(reeb, chart_name, sigmas, y0, directions, rtol, atol):
    """Trace lanes of one chart together, each on its own side σ and in its
    own direction, for ``T_MAX`` at most.

    Returns one :class:`OrbitTrace` per lane, or the exception that ended
    it.  When the field raises for the batch, each half is traced again the
    same way, so that only the lanes that raise fail.
    """
    if not np.isin(sigmas, (-1, 1)).all():
        raise ValueError("sigma must be ±1 off the surface")
    atlas = reeb.form.atlas
    s_cut = math.log(Z_CUT_FACTOR * atlas.epsilon)
    s_top = math.log(atlas.epsilon)
    events = [
        Event(fn=lambda t, y: y[:, 2] - s_cut, direction=-1, name="reached-Z"),
        Event(fn=lambda t, y: y[:, 2] - s_top, direction=1,
              name="left-neighborhood"),
    ]
    try:
        lanes = integrate(regularized_field(reeb, chart_name), y0,
                          (0.0, directions * T_MAX), rtol=rtol, atol=atol,
                          events=events,
                          stop=_chart_guard(atlas.charts[chart_name]),
                          per_lane=sigmas)
    except Exception as exc:  # from the field: find the lanes that raise
        if len(y0) == 1:
            return [exc]
        half = len(y0) // 2
        return [lane for part in (slice(None, half), slice(half, None))
                for lane in _trace_lanes(reeb, chart_name, sigmas[part],
                                         y0[part], directions[part], rtol,
                                         atol)]
    return [sol if isinstance(sol, Exception) else OrbitTrace(
                **vars(sol), chart=chart_name, sigma=sigma,
                direction=direction)
            for sol, sigma, direction in zip(lanes, sigmas.tolist(),
                                             directions.tolist())]


# ---------------------------------------------------------------------------
# limit classification

def _tail_monotone(trace, tub, p):
    """Distance to p over the final window: (non-increasing?, worst backslide).

    Small numerical wiggles are tolerated: each sample may exceed its
    predecessor by 1e−12 absolute or one part in 1e9, nothing more.
    """
    n = trace.y.shape[0]
    tail = trace.y[max(0, n - max(5, int(n * TAIL_WINDOW))):]
    ds = tub.distance(trace.chart, (tail[:, 0], tail[:, 1]), p.chart, (p.u, p.v))
    steps = np.diff(ds)
    monotone = bool(np.all(steps <= np.maximum(1e-12, 1e-9 * ds[:-1])))
    return monotone, float(steps.max(initial=0.0))


def detect_limit(trace, points, tub):
    """Classify the end state of a trace against the critical-point list.

    The verdict ``limits-to`` requires all three of: the transverse
    coordinate fell below the cut, the final tangential position is within
    ``POSITION_TOL`` of a critical point, and the distance to that point is
    monotonically non-increasing over the final window.
    """
    uf, vf, sf = map(float, trace.final)
    if trace.status == "event:reached-Z":
        best, best_d = None, math.inf
        if points:  # the nearest point; on a tie, the first in ``points``
            ds = np.empty(len(points))
            for chart in {p.chart for p in points}:
                mine = [k for k, p in enumerate(points) if p.chart == chart]
                uv = np.array([(points[k].u, points[k].v) for k in mine]).T
                ds[mine] = tub.distance(trace.chart, (uf, vf), chart, uv)
            k = int(np.argmin(ds))
            best, best_d = points[k], ds[k]
        if best is not None and best_d < POSITION_TOL:
            monotone, backslide = _tail_monotone(trace, tub, best)
            if monotone:
                return LimitReport(verdict="limits-to", point=best,
                                   distance=best_d, monotone=True,
                                   backslide=backslide,
                                   final_state=(uf, vf, sf))
            return LimitReport(verdict="undecided", point=best,
                               distance=best_d, monotone=False,
                               backslide=backslide, final_state=(uf, vf, sf))
        return LimitReport(verdict="undecided", distance=best_d,
                           final_state=(uf, vf, sf))
    if trace.status in ("event:left-neighborhood", "left-chart"):
        return LimitReport(verdict="left-neighborhood",
                           final_state=(uf, vf, sf))
    return LimitReport(verdict="undecided", final_state=(uf, vf, sf))


# ---------------------------------------------------------------------------
# seeding and manifold tracing

def _tangential_eigenvector(report):
    """Unit (u, v) eigenvector whose eigenvalue shares the sign of λ_z.

    DR(p) is block triangular with bottom row (0, 0, λ_z), so tangential
    eigenvectors have an exactly-zero third component — that distinguishes
    them from the z-direction eigenvector, whose eigenvalue has the same
    sign.
    """
    want = 1.0 if report.lambda_z > 0 else -1.0
    candidates = []
    for lam, vec in zip(report.eigenvalues, report.eigenvectors.T):
        if abs(lam.imag) > 1e-8 * max(1.0, abs(lam)):
            continue
        if lam.real * want <= 0:
            continue
        candidates.append((abs(vec[2]), vec))
    if not candidates:
        raise ValueError("no tangential eigenvector matches the sign of λ_z")
    candidates.sort(key=lambda c: c[0])
    vec = candidates[0][1]
    w = np.real(vec[:2])
    norm = math.hypot(*w)
    if norm < 1e-9:
        raise ValueError("tangential eigenvector is numerically degenerate")
    return w / norm


def seed_plan(report, n_fan=None):
    """Seed states ``OFFSET`` from a point, on its manifold transverse to Z.

    Extrema: one seed per side on the z-axis, which is tangent to the curve
    only where the frame reads no z at p (see the module docstring).
    Saddles: a fan of ``n_fan`` (default ``N_FAN``) directions ψ in the
    (tangential, z) plane, offset by half a slot so no seed sits on either
    axis; an odd ``n_fan``, whose slot (n − 1)/2 is ψ = π on Z, is refused.
    """
    if n_fan is None:
        n_fan = N_FAN
    if n_fan % 2:
        raise ValueError(f"n_fan must be even (ψ = π is on Z), got {n_fan}")
    p = report.point
    if report.kind == "nonhyperbolic-1d-transverse":
        s0 = math.log(OFFSET)
        return [(None, RegularizedState(p.chart, p.u, p.v, s0, sigma))
                for sigma in (1, -1)]
    e_t = _tangential_eigenvector(report)
    seeds = []
    for k in range(n_fan):
        psi = 2.0 * math.pi * (k + 0.5) / n_fan
        du, dv = OFFSET * math.cos(psi) * e_t
        zk = OFFSET * math.sin(psi)
        seeds.append((psi, RegularizedState(
            p.chart, p.u + du, p.v + dv, math.log(abs(zk)),
            1 if zk > 0 else -1)))
    return seeds


def trace_invariant_manifolds(reeb, reports, *, n_fan=None, rtol=None,
                              atol=None):
    """Trace every seed of every report both ways and classify the ends.

    The seeds of one chart, on both sides of Z, are traced together,
    toward and away in one batch of lanes.  ``rtol`` and ``atol`` default
    to :data:`rk45.RTOL` and :data:`rk45.ATOL`.
    """
    points = [r.point for r in reports]
    plan = [(report, psi, seed) for report in reports
            for psi, seed in seed_plan(report, n_fan=n_fan)]
    groups = {}   # chart -> plan entries
    for k, (_, _, seed) in enumerate(plan):
        groups.setdefault(seed.chart, []).append(k)
    ends = {}     # plan entry -> (toward, away)
    for chart_name, ks in groups.items():
        starts = [[plan[k][2].u, plan[k][2].v, plan[k][2].s] for k in ks]
        sigmas = [plan[k][2].sigma for k in ks]
        toward = [-1 if plan[k][0].lambda_z > 0 else 1 for k in ks]
        lanes = _trace_lanes(reeb, chart_name, np.array(sigmas * 2),
                             np.array(starts * 2),
                             np.array(toward + [-d for d in toward]),
                             rtol, atol)
        for j, k in enumerate(ks):
            ends[k] = (lanes[j], lanes[j + len(ks)])

    orbits = []
    for k, (report, psi, seed) in enumerate(plan):
        toward, away = ends[k]
        exc = next((e for e in (toward, away) if isinstance(e, Exception)),
                   None)
        if exc is not None:  # the seed fails alone
            failed = LimitReport(verdict="integration-failed",
                                 error=f"{type(exc).__name__}: {exc}")
            orbits.append(EscapeOrbit(
                point=report.point, psi=psi, seed=seed, toward=None,
                away=None, near_end=failed, far_end=failed, weight=0))
            continue
        near = detect_limit(toward, points, reeb.form.atlas)
        far = detect_limit(away, points, reeb.form.atlas)
        weight = sum(1 for r in (near, far) if r.verdict == "limits-to")
        orbits.append(EscapeOrbit(
            point=report.point, psi=psi, seed=seed, toward=toward,
            away=away, near_end=near, far_end=far, weight=weight))
    return orbits


# ---------------------------------------------------------------------------
# census

def _distinct(escaping, tub):
    """The orbits of ``escaping`` whose seed lies on no trajectory kept
    before it on the same side of Z: within ``MATCH_TOL`` of a sample, as
    the distance in ``tub`` plus |Δs|.

    The samples of every trace are sorted by s once, and one
    ``searchsorted`` finds each seed's window |s − s_seed| < 2·MATCH_TOL;
    no sample outside it can match, since the distance is ≥ 0.  A window's
    samples on the seed's side, of an earlier orbit, are tested in one
    distance call per pair of charts, and one pass in order keeps a seed
    unless it matched a kept orbit.
    """
    if not escaping:
        return []
    names = list(tub.charts)
    seeds = np.array([(o.seed.u, o.seed.v, o.seed.s) for o in escaping])
    side, home = np.array([(o.seed.sigma, names.index(o.seed.chart))
                           for o in escaping]).T
    traces = [(k, names.index(trace.chart), trace.y)
              for k, o in enumerate(escaping) for trace in (o.toward, o.away)]
    rows = np.concatenate([y for _, _, y in traces])
    owner, chart = np.repeat([(k, c) for k, c, _ in traces],
                             [len(y) for _, _, y in traces], axis=0).T
    order = np.argsort(rows[:, 2])
    lo = np.searchsorted(rows[order, 2], seeds[:, 2] - 2 * MATCH_TOL, "left")
    hi = np.searchsorted(rows[order, 2], seeds[:, 2] + 2 * MATCH_TOL, "right")
    width = hi - lo
    seed = np.repeat(np.arange(len(escaping)), width)
    sample = order[np.arange(width.sum())
                   + np.repeat(lo - np.cumsum(width) + width, width)]
    pairs = (owner[sample] < seed) & (side[owner[sample]] == side[seed])
    seed, sample = seed[pairs], sample[pairs]
    group = home[seed] * len(names) + chart[sample]
    match = np.zeros(len(seed), dtype=bool)
    for key in np.unique(group).tolist():
        at = group == key
        a, b = seeds[seed[at]], rows[sample[at]]
        match[at] = (tub.distance(names[key // len(names)], (a[:, 0], a[:, 1]),
                                  names[key % len(names)], (b[:, 0], b[:, 1]))
                     + np.abs(b[:, 2] - a[:, 2]) < MATCH_TOL)
    kept = [True] * len(escaping)   # in seed order, orbit i < k is decided
    for k, i in sorted(zip(seed[match].tolist(),
                           owner[sample[match]].tolist())):
        kept[k] = kept[k] and not kept[i]
    return [o for o, keep in zip(escaping, kept) if keep]


def escape_census(orbits, bound, tub):
    """Deduplicate traced orbits and compare the tally with the bound.

    An escaping orbit is a duplicate when its seed lies on the trajectory of
    an orbit kept before it on the same side of Z; the samples of all
    escaping orbits are matched against the seeds in one sorted sweep
    (:func:`_distinct`).
    """
    distinct = _distinct([o for o in orbits
                          if o.near_end.verdict == "limits-to"], tub)
    weighted = sum(o.weight for o in distinct)

    per_point = []
    for comp in sorted({id(o.point): o.point for o in distinct}.values(),
                       key=lambda p: (p.chart, p.u, p.v)):
        weights = sorted(o.weight for o in distinct if o.point is comp)
        per_point.append({"point": comp, "n_orbits": len(weights),
                          "weights": weights})

    if bound.verdict == "infinite":
        # a saddle witnesses it: more distinct orbits than the 2 an extremum
        # gives, or all of them when its fan has fewer than 3 seeds
        fans = collections.Counter(id(o.point) for o in orbits
                                   if o.point.index == 1)
        kept = collections.Counter(id(o.point) for o in distinct)
        consistent = (len(distinct) >= bound.lower_bound
                      and any(kept[k] >= min(3, n) for k, n in fans.items()))
    else:
        consistent = (weighted == bound.expected_weighted
                      and len(distinct) >= bound.lower_bound)
    return EscapeCensus(
        n_seeds=len(orbits), n_distinct=len(distinct),
        weighted_total=weighted, per_point=per_point,
        verdict=bound.verdict, consistent_with_bound=consistent,
        details={"match_tol": MATCH_TOL,
                 "non_escaping_seeds": sum(
                     1 for o in orbits
                     if o.near_end.verdict != "limits-to")})


def refinement_check(reeb, reports):
    """Re-trace at ``REFINEMENT_FACTOR``-times tighter rk45 tolerances; compare.

    Returns a dict with both orbit lists, whether every near-end verdict and
    limit point survived, and the worst displacement of a final tangential
    position between the two passes.
    """
    factor = REFINEMENT_FACTOR
    coarse = trace_invariant_manifolds(reeb, reports)
    fine = trace_invariant_manifolds(reeb, reports, rtol=rk45.RTOL / factor,
                                     atol=rk45.ATOL / factor)
    stable = True
    finals = {}   # (chart, chart) -> rows (u, v) coarse then (u, v) fine
    for a, b in zip(coarse, fine):
        if a.near_end.verdict != b.near_end.verdict:
            stable = False
            continue
        if a.near_end.point is not None or b.near_end.point is not None:
            if (a.near_end.point is None or b.near_end.point is None
                    or a.near_end.point is not b.near_end.point):
                stable = False
                continue
        if a.toward is None or b.toward is None:
            continue
        finals.setdefault((a.seed.chart, b.seed.chart), []).append(
            (*a.toward.final[:2], *b.toward.final[:2]))
    worst_shift = 0.0
    for (chart_a, chart_b), rows in finals.items():
        f = np.array(rows)
        shifts = reeb.form.atlas.distance(chart_a, (f[:, 0], f[:, 1]),
                                          chart_b, (f[:, 2], f[:, 3]))
        worst_shift = max(worst_shift, float(shifts.max()))
    return {"coarse": coarse, "fine": fine, "stable": stable,
            "worst_final_shift": worst_shift, "factor": factor}

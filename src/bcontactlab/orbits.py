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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rk45 import Event, integrate

__all__ = [
    "RegularizedState", "OrbitTrace", "LimitReport", "EscapeOrbit",
    "EscapeCensus", "regularized_field", "integrate_orbit", "detect_limit",
    "seed_plan", "trace_invariant_manifolds", "escape_census",
    "refinement_check",
]

OFFSET = 1e-4            # seed displacement from the critical point
N_FAN = 16               # seeds in a saddle fan
Z_CUT_FACTOR = 1e-8      # |z| < factor·ε counts as "reached Z"
POSITION_TOL = 1e-5      # tangential closeness for a limit claim
T_MAX = 400.0            # time budget per trace
MATCH_TOL = 1e-6         # seed-on-trajectory distance for orbit identity


@dataclass(frozen=True)
class RegularizedState:
    """A point of the punctured neighborhood in log-transverse coordinates."""

    chart: str
    u: float
    v: float
    s: float     # log |z|
    sigma: int   # ±1, the side of Z


@dataclass
class OrbitTrace:
    """One integrated arc: samples and termination status."""

    chart: str
    sigma: int
    direction: int
    t: np.ndarray
    y: np.ndarray                  # columns (u, v, s)
    status: str
    stats: dict

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

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "point": None if self.point is None else self.point.as_dict(),
            "distance": self.distance,
            "monotone": self.monotone,
            "backslide": self.backslide,
            "final_state": list(self.final_state),
            "error": self.error,
        }


@dataclass
class EscapeOrbit:
    """A traced orbit near a critical point, both ends classified."""

    point: object          # the critical point it was seeded at
    chart: str
    sigma: int
    psi: float | None      # fan angle for saddle seeds, None for extrema
    seed: RegularizedState
    toward: OrbitTrace     # time direction in which |z| shrinks
    away: OrbitTrace       # the opposite direction
    near_end: LimitReport
    far_end: LimitReport
    weight: int            # ends that limit onto Z (1 = one-way, 2 = both)

    def as_dict(self):
        return {
            "point": self.point.as_dict(),
            "seed": {"chart": self.seed.chart, "u": self.seed.u,
                     "v": self.seed.v, "s": self.seed.s,
                     "sigma": self.seed.sigma},
            "psi": self.psi,
            "near_end": self.near_end.as_dict(),
            "far_end": self.far_end.as_dict(),
            "weight": self.weight,
        }


@dataclass
class EscapeCensus:
    n_seeds: int
    n_distinct: int
    weighted_total: int
    per_point: list
    verdict: str                 # copied from the critical-point bound
    consistent_with_bound: bool
    details: dict

    def as_dict(self):
        return {
            "n_seeds": self.n_seeds, "n_distinct": self.n_distinct,
            "weighted_total": self.weighted_total,
            "per_point": self.per_point, "verdict": self.verdict,
            "consistent_with_bound": self.consistent_with_bound,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# fields

def regularized_field(reeb, chart_name, sigma):
    """Right-hand side for (u, v, s) with z = σ e^s."""
    if sigma not in (-1, 1):
        raise ValueError("sigma must be ±1 off the surface")

    def rhs(t, y):
        z = sigma * math.exp(y[2])
        yu, yv, g = reeb.components(float(y[0]), float(y[1]), z,
                                    chart_name=chart_name)
        return np.array([yu, yv, g])

    return rhs


# ---------------------------------------------------------------------------
# tracing

def _chart_guard(chart, slack=0.05):
    def stop(t, y):
        if not chart.contains(float(y[0]), float(y[1]), slack=slack):
            return "left-chart"
        return None

    return stop


def integrate_orbit(reeb, state, tub, *, direction=1, t_max=T_MAX,
                    rtol=1e-10, atol=1e-12):
    """Trace one off-surface orbit until it reaches Z, leaves, or times out."""
    chart = tub.charts[state.chart]
    s_cut = math.log(Z_CUT_FACTOR * tub.epsilon)
    s_top = math.log(tub.epsilon)
    rhs = regularized_field(reeb, state.chart, state.sigma)
    events = [
        Event(fn=lambda t, y: y[2] - s_cut, direction=-1, name="reached-Z"),
        Event(fn=lambda t, y: y[2] - s_top, direction=1,
              name="left-neighborhood"),
    ]
    sol = integrate(rhs, [state.u, state.v, state.s],
                    (0.0, direction * t_max), rtol=rtol, atol=atol,
                    events=events, stop=_chart_guard(chart))
    return OrbitTrace(chart=state.chart, sigma=state.sigma,
                      direction=direction, t=sol.t, y=sol.y,
                      status=sol.status, stats=sol.stats_dict())


# ---------------------------------------------------------------------------
# limit classification

def _tail_monotone(trace, tub, p, window=0.1):
    """Distance to p over the final window: (non-increasing?, worst backslide).

    Small numerical wiggles are tolerated: each sample may exceed its
    predecessor by 1e−12 absolute or one part in 1e9, nothing more.
    """
    n = trace.y.shape[0]
    tail = trace.y[max(0, n - max(5, int(n * window))):]
    ds = tub.distance(trace.chart, (tail[:, 0], tail[:, 1]), p.chart, (p.u, p.v))
    steps = np.diff(ds)
    monotone = bool(np.all(steps <= np.maximum(1e-12, 1e-9 * ds[:-1])))
    return monotone, float(steps.max(initial=0.0))


def detect_limit(trace, points, tub, tol=POSITION_TOL):
    """Classify the end state of a trace against the critical-point list.

    The verdict ``limits-to`` requires all three of: the transverse
    coordinate fell below the cut, the final tangential position is within
    ``tol`` of a critical point, and the distance to that point is
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
        if best is not None and best_d < tol:
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


def seed_plan(report, offset=OFFSET, n_fan=N_FAN):
    """Seed states for the invariant manifold transverse to Z at one point.

    Extrema: the curve is tangent to the z-axis — one seed per side.
    Saddles: a fan of ``n_fan`` directions ψ in the (tangential, z) plane,
    offset by half a slot so no seed sits on either axis.
    """
    if offset <= 0.0:
        raise ValueError("seed offset must be positive (a zero offset would "
                         "sit exactly on the fixed point)")
    p = report.point
    if report.kind == "nonhyperbolic-1d-transverse":
        s0 = math.log(offset)
        return [(None, RegularizedState(p.chart, p.u, p.v, s0, sigma))
                for sigma in (1, -1)]
    e_t = _tangential_eigenvector(report)
    seeds = []
    for k in range(n_fan):
        psi = 2.0 * math.pi * (k + 0.5) / n_fan
        du, dv = offset * math.cos(psi) * e_t
        zk = offset * math.sin(psi)
        seeds.append((psi, RegularizedState(
            p.chart, p.u + du, p.v + dv, math.log(abs(zk)),
            1 if zk > 0 else -1)))
    return seeds


def trace_invariant_manifolds(reeb, reports, tub, *, offset=OFFSET,
                              n_fan=N_FAN, t_max=T_MAX, rtol=1e-10,
                              atol=1e-12, tol=POSITION_TOL):
    """Trace every seed of every report both ways and classify the ends."""
    points = [r.point for r in reports]
    orbits = []
    for report in reports:
        toward_dir = -1 if report.lambda_z > 0 else 1
        for psi, seed in seed_plan(report, offset=offset, n_fan=n_fan):
            try:
                toward = integrate_orbit(reeb, seed, tub, direction=toward_dir,
                                         t_max=t_max, rtol=rtol, atol=atol)
                away = integrate_orbit(reeb, seed, tub, direction=-toward_dir,
                                       t_max=t_max, rtol=rtol, atol=atol)
            except Exception as exc:  # keep the batch alive, record the seed
                failed = LimitReport(verdict="integration-failed",
                                     error=f"{type(exc).__name__}: {exc}")
                orbits.append(EscapeOrbit(
                    point=report.point, chart=seed.chart, sigma=seed.sigma,
                    psi=psi, seed=seed, toward=None, away=None,
                    near_end=failed, far_end=failed, weight=0))
                continue
            near = detect_limit(toward, points, tub, tol=tol)
            far = detect_limit(away, points, tub, tol=tol)
            weight = sum(1 for r in (near, far) if r.verdict == "limits-to")
            orbits.append(EscapeOrbit(
                point=report.point, chart=seed.chart, sigma=seed.sigma,
                psi=psi, seed=seed, toward=toward, away=away,
                near_end=near, far_end=far, weight=weight))
    return orbits


# ---------------------------------------------------------------------------
# census

def escape_census(orbits, bound, tub, match_tol=MATCH_TOL):
    """Deduplicate traced orbits and compare the tally with the bound.

    An escaping orbit is a duplicate when its seed lies on the trajectory of
    an orbit kept before it on the same side of Z.  The samples of the kept
    orbits are stacked per (σ, chart), so each seed is one distance call per
    stack.
    """
    distinct = []
    stacks = {}   # (sigma, chart) -> (u, v, s) samples of the kept orbits
    for orbit in orbits:
        if orbit.near_end.verdict != "limits-to":
            continue
        sb = orbit.seed
        if any(np.any(tub.distance(sb.chart, (sb.u, sb.v), chart,
                                   (rows[:, 0], rows[:, 1]))
                      + np.abs(rows[:, 2] - sb.s) < match_tol)
               for (sigma, chart), rows in stacks.items()
               if sigma == orbit.sigma):
            continue
        distinct.append(orbit)
        for trace in (orbit.toward, orbit.away):
            key = (orbit.sigma, trace.chart)
            stacks[key] = np.concatenate([stacks.get(key, np.empty((0, 3))),
                                          trace.y])
    weighted = sum(o.weight for o in distinct)

    per_point = []
    for comp in {id(o.point): o.point for o in distinct}.values():
        mine = [o for o in distinct if o.point is comp]
        per_point.append({
            "chart": comp.chart, "u": comp.u, "v": comp.v,
            "index": comp.index, "n_orbits": len(mine),
            "weights": sorted(o.weight for o in mine),
        })
    per_point.sort(key=lambda d: (d["chart"], d["u"], d["v"]))

    if bound.verdict == "infinite":
        # sampled orbits witness the bound; any saddle fan already exceeds 2N
        consistent = len(distinct) >= bound.lower_bound
    else:
        consistent = (weighted == bound.expected_weighted
                      and len(distinct) >= bound.lower_bound)
    return EscapeCensus(
        n_seeds=len(orbits), n_distinct=len(distinct),
        weighted_total=weighted, per_point=per_point,
        verdict=bound.verdict, consistent_with_bound=consistent,
        details={"match_tol": match_tol,
                 "non_escaping_seeds": sum(
                     1 for o in orbits
                     if o.near_end.verdict != "limits-to")})


def refinement_check(reeb, reports, tub, *, factor=10.0, rtol=1e-10,
                     atol=1e-12, tol=POSITION_TOL, **kwargs):
    """Re-trace everything at ``factor``-tighter tolerances and compare.

    Returns a dict with both orbit lists, whether every near-end verdict and
    limit point survived, and the worst displacement of a final tangential
    position between the two passes.
    """
    coarse = trace_invariant_manifolds(reeb, reports, tub, rtol=rtol,
                                       atol=atol, tol=tol, **kwargs)
    fine = trace_invariant_manifolds(reeb, reports, tub, rtol=rtol / factor,
                                     atol=atol / factor, tol=tol, **kwargs)
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
        finals.setdefault((a.chart, b.chart), []).append(
            (*a.toward.final[:2], *b.toward.final[:2]))
    worst_shift = 0.0
    for (chart_a, chart_b), rows in finals.items():
        f = np.array(rows)
        shifts = tub.distance(chart_a, (f[:, 0], f[:, 1]),
                              chart_b, (f[:, 2], f[:, 3]))
        worst_shift = max(worst_shift, float(shifts.max()))
    return {"coarse": coarse, "fine": fine, "stable": stable,
            "worst_final_shift": worst_shift, "factor": factor}

"""Tubular charts of a closed surface Z inside a 3-manifold.

A tubular chart is Z × (−ε, ε) in coordinates (u, v, z), with Z at z = 0.
One atlas covers one connected component of Z, and its ``kind`` names the
surface with the word that scenario files (``surface``) and
``critical.BETTI`` use.  Two surface kinds are supported:

* ``torus``: one chart, both surface coordinates 2π-periodic;
* ``sphere``: two angular charts (north- and south-centered colatitude
  θ ∈ [δ, π/2 + margin], azimuth φ), glued by the involution
  θ′ = π − θ, φ′ = −φ on the equatorial overlap annulus, plus two small
  Cartesian disk charts (u, v) = (θ cos φ, θ sin φ) covering the poles that
  the angular charts exclude.

Every chart knows its variable names, domain box, and periodicity; the atlas
provides canonical coordinates and an intrinsic distance so that points found
in different charts can be compared and deduplicated.  A contact form
(``contact.BContactForm``) carries its atlas, one field entry per chart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Chart", "TubularChart"]

POLE_CAP = 0.05          # δ: the θ-cap an angular sphere chart leaves out
POLE_RADIUS = 0.3        # of the pole disks; > δ, so they overlap the charts
EQUATOR_MARGIN = 0.2     # an angular chart reaches θ = π/2 + this
DISK_RINGS = 9           # a disk chart's samples: its centre, then rings
DISK_SPOKES = 24         # points per ring


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart (u, v) on Z, extended by the transverse z."""

    name: str
    u_name: str
    v_name: str
    z_name: str
    u_range: tuple
    v_range: tuple
    u_periodic: bool = False
    v_periodic: bool = False
    disk_radius: float = 0.0  # > 0: domain is the disk u² + v² ≤ r², not the box

    @property
    def variables(self):
        return (self.u_name, self.v_name, self.z_name)

    def wrap(self, u, v):
        """Normalize periodic coordinates into their fundamental range."""
        if self.u_periodic:
            lo, hi = self.u_range
            u = lo + (u - lo) % (hi - lo)
        if self.v_periodic:
            lo, hi = self.v_range
            v = lo + (v - lo) % (hi - lo)
        return u, v

    def offset(self, du, dv):
        """A coordinate difference, periodic parts wrapped into [−span/2, span/2)."""
        if self.u_periodic:
            span = self.u_range[1] - self.u_range[0]
            du = (du + span / 2) % span - span / 2
        if self.v_periodic:
            span = self.v_range[1] - self.v_range[0]
            dv = (dv + span / 2) % span - span / 2
        return du, dv

    def contains(self, u, v, slack=0.0):
        """Whether (u, v) lies in the domain widened by ``slack``; floats or
        arrays (elementwise; True when both axes are periodic)."""
        if self.disk_radius > 0.0:
            return u * u + v * v <= (self.disk_radius + slack) ** 2
        inside = True
        if not self.u_periodic:
            inside = (self.u_range[0] - slack <= u) & (u <= self.u_range[1] + slack)
        if not self.v_periodic:
            inside = (inside & (self.v_range[0] - slack <= v)
                      & (v <= self.v_range[1] + slack))
        return inside

    def grid(self, nu, nv):
        """(u_values, v_values) arrays; periodic axes omit the duplicate endpoint."""
        if self.disk_radius > 0.0:
            raise ValueError("disk charts are sampled with disk_points, not a box grid")
        u = np.linspace(*self.u_range, nu, endpoint=not self.u_periodic)
        v = np.linspace(*self.v_range, nv, endpoint=not self.v_periodic)
        return u, v

    def disk_points(self):
        """Polar sampling of a disk chart, center included once."""
        if self.disk_radius <= 0.0:
            raise ValueError(f"chart {self.name!r} is not a disk chart")
        pts = [(0.0, 0.0)]
        for r in np.linspace(self.disk_radius / DISK_RINGS, self.disk_radius,
                             DISK_RINGS):
            for psi in np.linspace(0.0, 2 * math.pi, DISK_SPOKES,
                                   endpoint=False):
                pts.append((r * math.cos(psi), r * math.sin(psi)))
        return pts


class TubularChart:
    """The tubular neighborhood Z × (−ε, ε) as a set of glued charts, held in
    ``charts`` by name in the order given: primaries first, the order in
    which surface scans visit them."""

    def __init__(self, kind, epsilon, charts):
        if epsilon <= 0:
            raise ValueError("tubular half-width epsilon must be positive")
        self.kind = kind
        self.epsilon = epsilon
        self.charts = {c.name: c for c in charts}

    @staticmethod
    def torus(epsilon=0.5):
        two_pi = 2 * math.pi
        chart = Chart("torus", "u", "v", "z", (0.0, two_pi), (0.0, two_pi),
                      u_periodic=True, v_periodic=True)
        return TubularChart("torus", epsilon, [chart])

    @staticmethod
    def sphere_atlas(epsilon=0.5):
        """Two angular charts plus two pole disks.

        The angular charts exclude a ``POLE_CAP`` cap around their own pole
        (where the (θ, φ) coordinates degenerate); the disk charts cover
        those caps with honest Cartesian coordinates and overlap the angular
        charts on ``POLE_CAP`` < θ < ``POLE_RADIUS``.
        """
        delta, radius = POLE_CAP, POLE_RADIUS
        theta_hi = math.pi / 2 + EQUATOR_MARGIN
        north = Chart("north", "theta", "phi", "z", (delta, theta_hi),
                      (-math.pi, math.pi), v_periodic=True)
        south = Chart("south", "theta", "phi", "z", (delta, theta_hi),
                      (-math.pi, math.pi), v_periodic=True)
        npole = Chart("north-pole", "u", "v", "z", (-radius, radius),
                      (-radius, radius), disk_radius=radius)
        spole = Chart("south-pole", "u", "v", "z", (-radius, radius),
                      (-radius, radius), disk_radius=radius)
        return TubularChart("sphere", epsilon, [north, south, npole, spole])

    # -- sphere transition maps -------------------------------------------
    @staticmethod
    def angular_transition(theta, phi):
        """North ↔ south angular chart map; an involution, its own inverse."""
        phi2 = -phi
        if phi2 <= -math.pi:
            phi2 += 2 * math.pi
        return math.pi - theta, phi2

    def overlap_annulus(self, n_theta=8, n_phi=16):
        """Sample points of the equatorial overlap of the two angular charts."""
        if self.kind != "sphere":
            raise ValueError("overlap annulus exists only for sphere atlases")
        north = self.charts["north"]
        t_lo = math.pi - north.u_range[1]
        t_hi = north.u_range[1]
        thetas = np.linspace(t_lo + 1e-3, t_hi - 1e-3, n_theta)
        phis = np.linspace(-math.pi, math.pi, n_phi, endpoint=False)
        return [(float(t), float(p)) for t in thetas for p in phis]

    # -- canonical coordinates and metric ----------------------------------
    def to_canonical(self, chart_name, u, v):
        """Chart point → canonical coordinates usable across the whole atlas.

        Torus: wrapped (u, v).  Sphere: the unit vector in R³, which makes the
        comparison metric chart-independent.  u and v may be floats or arrays.
        """
        if self.kind == "torus":
            return self.charts["torus"].wrap(u, v)
        if chart_name == "north":
            theta, phi = u, v
        elif chart_name == "south":
            theta, phi = np.pi - u, -v
        elif chart_name == "north-pole":
            theta, phi = np.hypot(u, v), np.arctan2(v, u)
        elif chart_name == "south-pole":
            theta, phi = np.pi - np.hypot(u, v), -np.arctan2(v, u)
        else:
            raise KeyError(chart_name)
        st = np.sin(theta)
        return (st * np.cos(phi), st * np.sin(phi), np.cos(theta))

    def distance(self, chart_a, pa, chart_b, pb):
        """Intrinsic-scale distance between points given in any two charts.

        The coordinates of either point may be arrays; the result broadcasts.
        """
        ca = self.to_canonical(chart_a, *pa)
        cb = self.to_canonical(chart_b, *pb)
        if self.kind == "torus":
            return np.hypot(*self.charts["torus"].offset(ca[0] - cb[0],
                                                         ca[1] - cb[1]))
        return np.hypot(np.hypot(ca[0] - cb[0], ca[1] - cb[1]), ca[2] - cb[2])

    def express_in(self, chart_name, canonical, slack=0.0):
        """Canonical coordinates → this chart's (u, v), or None if outside its
        domain widened by ``slack`` (narrowed, for a negative ``slack``)."""
        chart = self.charts[chart_name]
        if self.kind == "torus":
            return chart.wrap(*canonical)
        x, y, zc = canonical
        theta = math.atan2(math.hypot(x, y), zc)
        phi = math.atan2(y, x)
        if chart_name == "north":
            uv = (theta, phi)
        elif chart_name == "south":
            uv = self.angular_transition(theta, phi)
        elif chart_name == "north-pole":
            uv = (theta * math.cos(phi), theta * math.sin(phi))
        else:  # south-pole
            rho = math.pi - theta
            uv = (rho * math.cos(-phi), rho * math.sin(-phi))
        return uv if chart.contains(*uv, slack=slack) else None

    def held_inside(self, chart_name, u, v, margin):
        """Whether another chart of the atlas holds the point (u, v) of
        ``chart_name`` at least ``margin`` inside its domain."""
        canonical = self.to_canonical(chart_name, u, v)
        return any(self.express_in(name, canonical, slack=-margin) is not None
                   for name in self.charts if name != chart_name)


"""Sphere-atlas maps that only tests use: the angular transition, the
equatorial overlap's samples and the inverse of ``to_canonical``."""
import math

import numpy as np


def angular_transition(theta, phi):
    """North ↔ south angular chart map; an involution, its own inverse."""
    phi2 = -phi
    if phi2 <= -math.pi:
        phi2 += 2 * math.pi
    return math.pi - theta, phi2


def overlap_annulus(tub, n_theta=8, n_phi=16):
    """Sample points of the equatorial overlap of the two angular charts."""
    if tub.kind != "sphere":
        raise ValueError("overlap annulus exists only for sphere atlases")
    north = tub.charts["north"]
    t_lo = math.pi - north.u_range[1]
    t_hi = north.u_range[1]
    thetas = np.linspace(t_lo + 1e-3, t_hi - 1e-3, n_theta)
    phis = np.linspace(-math.pi, math.pi, n_phi, endpoint=False)
    return [(float(t), float(p)) for t in thetas for p in phis]


def express_in(tub, chart_name, canonical):
    """Canonical coordinates → ``chart_name``'s (u, v) in ``tub``, or None
    if outside its domain."""
    chart = tub.charts[chart_name]
    if tub.kind == "torus":
        return chart.wrap(*canonical)
    x, y, zc = canonical
    theta = math.atan2(math.hypot(x, y), zc)
    phi = math.atan2(y, x)
    if chart_name == "north":
        uv = (theta, phi)
    elif chart_name == "south":
        uv = angular_transition(theta, phi)
    elif chart_name == "north-pole":
        uv = (theta * math.cos(phi), theta * math.sin(phi))
    else:  # south-pole
        rho = math.pi - theta
        uv = (rho * math.cos(-phi), rho * math.sin(-phi))
    return uv if chart.contains(*uv) else None

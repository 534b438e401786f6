"""The planar circular restricted three-body problem at infinity.

In a frame rotating with the primaries (masses 1−μ at (μ, 0) and μ at
(μ−1, 0)) the polar-coordinate Hamiltonian is

    P_r²/2 + P_a²/(2r²) − P_a − (1−μ)/d₁ − μ/d₂,

with d₁,₂ the distances to the primaries.  The inverted radial variable
x = √(2/r) compactifies r = ∞ to {x = 0}; the symplectic form picks up a
−4 dx/x³ ∧ dP_r factor there, so Hamilton's equations acquire an x³/4
rescaling in the (x, P_r) pair:

    ẋ = −(x³/4) ∂H/∂P_r,   ȧ = ∂H/∂P_a,
    Ṗ_r = (x³/4) ∂H/∂x,    Ṗ_a = −∂H/∂a.

Everything on the right is polynomial in x near x = 0, so the set {x = 0}
is invariant — exactly so, including in floating point — and carries the
rigid flow ȧ = −1: a circle of 2π-periodic orbits, one per (a₀, P_r, P_a).
For x > 0 the system is the classical one in disguise, which is what the
independent polar-coordinate oracle checks.

The oracle runs SciPy's DOP853 at ``ORACLE_RTOL`` and ``ORACLE_ATOL``, a
hundred times tighter than the shared ``rk45.RTOL`` and ``rk45.ATOL``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rk45 import Trajectory, integrate

__all__ = [
    "CollisionError", "McGeheeParams", "McGeheeState", "McGeheeTrajectory",
    "hamiltonian", "polar_hamiltonian", "vector_field", "polar_field",
    "integrate_mcgehee", "newtonian_oracle_compare",
]

COLLISION_FLOOR = 1e-12   # minimum squared primary distance (rescaled)
ORACLE_RTOL = 1e-12       # relative tolerance of the polar oracle's DOP853
ORACLE_ATOL = 1e-14       # its absolute tolerance, in (r, a, P_r, P_a) units


class CollisionError(RuntimeError):
    """The trajectory ran into one of the primaries."""


@dataclass(frozen=True)
class McGeheeParams:
    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mass ratio must lie in (0, 1), got {self.mu}")


@dataclass(frozen=True)
class McGeheeState:
    x: float    # inverted radial variable, r = 2/x²
    a: float    # rotating-frame polar angle
    pr: float   # radial momentum (unchanged by the substitution)
    pa: float   # angular momentum

    def __post_init__(self):
        if self.x < 0.0:
            raise ValueError(f"the radial variable cannot be negative: {self.x}")

    @property
    def r(self):
        if self.x == 0.0:
            return math.inf
        return 2.0 / (self.x * self.x)

    def as_array(self):
        return np.array([self.x, self.a, self.pr, self.pa])


def _energy(x, a, pr, pa, mu):
    """The Hamiltonian, on floats or arrays."""
    x2 = x * x
    x4 = x2 * x2
    s1, s2 = _squared_separations(x, a, mu)
    return (pr * pr / 2.0 + x4 * pa * pa / 8.0 - pa
            - (1.0 - mu) * x2 / np.sqrt(s1) - mu * x2 / np.sqrt(s2))


def _squared_separations(x, a, mu):
    x2 = x * x
    x4 = x2 * x2
    c = np.cos(a)
    return (4.0 - 4.0 * mu * x2 * c + mu * mu * x4,
            4.0 + 4.0 * (1.0 - mu) * x2 * c + (1.0 - mu) ** 2 * x4)


def _guard(x, a, mu):
    s1, s2 = _squared_separations(x, a, mu)
    if np.min(s1) < COLLISION_FLOOR or np.min(s2) < COLLISION_FLOOR:
        raise CollisionError(
            f"primary separation underflow at x={float(np.max(x)):.6g}")


def hamiltonian(state, params):
    """Energy of a state; guards against collision with either primary."""
    _guard(state.x, state.a, params.mu)
    return float(_energy(state.x, state.a, state.pr, state.pa, params.mu))


def polar_hamiltonian(r, a, pr, pa, mu):
    """The same energy in the original polar variables (r = 2/x²)."""
    c = np.cos(a)
    d1 = np.sqrt(r * r - 2.0 * mu * r * c + mu * mu)
    d2 = np.sqrt(r * r + 2.0 * (1.0 - mu) * r * c + (1.0 - mu) ** 2)
    return pr * pr / 2.0 + pa * pa / (2.0 * r * r) - pa \
        - (1.0 - mu) / d1 - mu / d2


def _field_values(x, a, pr, pa, mu):
    """Hamilton's equations from the closed-form partials of ``_energy``.

    With c, s = cos a, sin a and d₁, d₂ the rescaled separations,

        ∂H/∂x   = x³P_a²/2 − 4(1−μ)x(2 − μx²c)/d₁³ − 4μx(2 + (1−μ)x²c)/d₂³,
        ∂H/∂a   = 2μ(1−μ)x⁴ s (1/d₁³ − 1/d₂³),
        ∂H/∂P_r = P_r,     ∂H/∂P_a = x⁴P_a/4 − 1.

    Raises ``CollisionError`` when either squared separation falls below
    ``COLLISION_FLOOR``.
    """
    if x == 0.0:
        # {x = 0} is invariant and carries the rigid rotation a' = -1
        return np.array([0.0, -1.0, 0.0, 0.0])
    x2 = x * x
    x4 = x2 * x2
    c, s = math.cos(a), math.sin(a)
    d1sq = 4.0 - 4.0 * mu * x2 * c + mu * mu * x4
    d2sq = 4.0 + 4.0 * (1.0 - mu) * x2 * c + (1.0 - mu) ** 2 * x4
    if d1sq < COLLISION_FLOOR or d2sq < COLLISION_FLOOR:
        raise CollisionError(f"primary separation underflow at x={x:.6g}")
    d1, d2 = math.sqrt(d1sq), math.sqrt(d2sq)
    d1c, d2c = d1 * d1 * d1, d2 * d2 * d2
    h_x = (x * x2 * pa * pa / 2.0
           - 4.0 * (1.0 - mu) * x * (2.0 - mu * x2 * c) / d1c
           - 4.0 * mu * x * (2.0 + (1.0 - mu) * x2 * c) / d2c)
    h_a = 2.0 * mu * (1.0 - mu) * x4 * s * (1.0 / d1c - 1.0 / d2c)
    k = x * x2 / 4.0
    return np.array([-k * pr, x4 * pa / 4.0 - 1.0, k * h_x, -h_a])


def vector_field(state, params):
    """State derivative (ẋ, ȧ, Ṗ_r, Ṗ_a)."""
    return _field_values(state.x, state.a, state.pr, state.pa, params.mu)


@dataclass
class McGeheeTrajectory(Trajectory):
    """The run's trajectory, y in columns (x, a, Pr, Pa), and its energy."""

    energy: np.ndarray
    energy_drift: float


def integrate_mcgehee(state0, params, t_span=(0.0, 100.0)):
    """Integrate the system and report the worst energy drift along the way.

    Raises what ends the run early: ``CollisionError`` from the field, or
    the integrator's failure.
    """
    mu = params.mu

    def rhs(t, y):
        return _field_values(*y[0].tolist(), mu)[None]

    sol, = integrate(rhs, state0.as_array()[None], t_span)
    if isinstance(sol, Exception):
        raise sol
    energy = np.asarray(_energy(sol.y[:, 0], sol.y[:, 1], sol.y[:, 2],
                                sol.y[:, 3], mu), dtype=float)
    drift = float(np.max(np.abs(energy - energy[0])))
    return McGeheeTrajectory(**vars(sol), energy=energy, energy_drift=drift)


# ---------------------------------------------------------------------------
# the independent oracle

def polar_field(t, y, mu):
    """Rotating-frame equations in (r, a, P_r, P_a), derived by hand."""
    r, a, pr, pa = y
    c, s = math.cos(a), math.sin(a)
    d1sq = r * r - 2.0 * mu * r * c + mu * mu
    d2sq = r * r + 2.0 * (1.0 - mu) * r * c + (1.0 - mu) ** 2
    d1 = math.sqrt(d1sq)
    d2 = math.sqrt(d2sq)
    r_dot = pr
    a_dot = pa / (r * r) - 1.0
    pr_dot = (pa * pa / r ** 3
              - (1.0 - mu) * (r - mu * c) / (d1sq * d1)
              - mu * (r + (1.0 - mu) * c) / (d2sq * d2))
    pa_dot = mu * (1.0 - mu) * r * s * (1.0 / (d2sq * d2) - 1.0 / (d1sq * d1))
    return (r_dot, a_dot, pr_dot, pa_dot)


def newtonian_oracle_compare(state0, params, t_span=(0.0, 10.0)):
    """Run both formulations side by side and measure their disagreement.

    The trajectory is integrated in the inverted variable with the shared
    adaptive integrator, then the classical polar system — coded separately
    above — is driven through SciPy's DOP853 over the same time samples.
    The deviation is reported per component after mapping r = 2/x².
    """
    # Imported here: scipy is slow to import and only this oracle uses it.
    from scipy.integrate import solve_ivp

    if state0.x <= 0.0:
        raise ValueError("the oracle comparison needs an orbit with x > 0")
    traj = integrate_mcgehee(state0, params, t_span)
    x = traj.y[:, 0]
    if np.min(x) <= 0.0:
        raise CollisionError("trajectory reached the infinity manifold; the "
                             "polar formulation cannot follow it")

    y0 = [state0.r, state0.a, state0.pr, state0.pa]
    if traj.t[0] == traj.t[-1]:
        oracle_y = np.tile(y0, (traj.t.size, 1))
    else:
        oracle = solve_ivp(polar_field, (traj.t[0], traj.t[-1]), y0,
                           t_eval=traj.t, args=(params.mu,), method="DOP853",
                           rtol=ORACLE_RTOL, atol=ORACLE_ATOL,
                           dense_output=False)
        if not oracle.success:
            raise CollisionError(f"oracle integration failed: {oracle.message}")
        oracle_y = oracle.y.T

    mapped = np.column_stack([2.0 / (x * x), traj.y[:, 1], traj.y[:, 2],
                              traj.y[:, 3]])
    gaps = np.abs(mapped - oracle_y)
    per = {name: float(np.max(gaps[:, k]))
           for k, name in enumerate(("r", "a", "Pr", "Pa"))}
    return {
        "max_deviation": float(np.max(gaps)),
        "per_component": per,
        "n_samples": int(traj.t.size),
        "t_final": float(traj.t[-1]),
        "energy_drift": traj.energy_drift,
        "oracle": "scipy solve_ivp DOP853 on the polar equations",
    }

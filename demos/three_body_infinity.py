"""
The restricted three-body problem at infinity
=============================================

Substituting x = sqrt(2/r) into the rotating-frame polar Hamiltonian
compactifies r = infinity to the invariant set {x = 0}, at the price of an
x^3/4 rescaling in Hamilton's equations.  The payoff: the set at infinity is
an honest submanifold of the flow, filled with 2pi-periodic orbits — one
through every (a0, Pr, Pa) — which this demo checks numerically, alongside
energy conservation and an independent integration of the classical polar
equations.
"""
import math

import numpy as np

from bcontactlab import (
    McGeheeParams, McGeheeState, integrate_mcgehee, newtonian_oracle_compare,
)

params = McGeheeParams(mu=0.5)

# a wide, near-circular orbit: r0 = 2/x0^2 = 50, circular angular momentum
start = McGeheeState(x=0.2, a=0.0, pr=0.0, pa=math.sqrt(50.0))
traj = integrate_mcgehee(start, params, t_span=(0.0, 100.0))
print(f"energy drift over t in [0, 100]: {traj.energy_drift:.2e} "
      f"({traj.n_steps} steps)")

# the same trajectory, integrated independently in the original polar
# variables with scipy's DOP853 and mapped through r = 2/x^2
report = newtonian_oracle_compare(start, params, t_span=(0.0, 10.0))
print(f"max deviation from the polar-coordinate oracle: "
      f"{report['max_deviation']:.2e} over {report['n_samples']} samples")
for name, gap in report["per_component"].items():
    print(f"    {name:2s}: {gap:.2e}")

# -- the manifold at infinity ------------------------------------------------

rim = McGeheeState(x=0.0, a=1.0, pr=0.3, pa=0.8)
cycle = integrate_mcgehee(rim, params, t_span=(0.0, 2 * math.pi))
print(f"\nstarting on {{x = 0}}: max |x(t)| = "
      f"{np.abs(cycle.y[:, 0]).max():.1f} (the set is exactly invariant)")

final = cycle.y[-1]
closed_form = (0.0, rim.a - 2 * math.pi, rim.pr, rim.pa)
gap = max(abs(a - b) for a, b in zip(final, closed_form))
print(f"after t = 2pi the state returns to its start "
      f"(angle advanced by -2pi): gap = {gap:.2e}")
print("every point of the manifold at infinity lies on such a periodic "
      "orbit -- an infinite family living at r = infinity")

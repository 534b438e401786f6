"""
From an area-preserving eigenfield to a singular contact form and back
======================================================================

A stream function F on the flat torus defines the divergence-free field
X = (-F_v, F_u) / (lambda sqrt(det h)).  When F is a Laplace eigenfunction
the pair (X, F) extends to a singular contact form F dz/z + h(X, .) on the
tubular neighborhood, and restricting its Reeb dynamics to the surface
recovers F as the Hamiltonian — a round trip this demo runs for a grid of
Fourier modes, plus the stagnation-point spectra for the shipped scenario.
"""
import numpy as np

from bcontactlab import (
    BeltramiData, beltrami_stability_matrix, contact_from_beltrami,
    exceptional_hamiltonian, hamiltonian_identity_check, laplace_eigen_check,
    find_critical_points,
)


def mode_row(m, n):
    data = BeltramiData(f"cos({m}*u + {n}*v)")
    identity = hamiltonian_identity_check(data)
    laplace = laplace_eigen_check(data)
    _, info = contact_from_beltrami(data)
    return (laplace.eigenvalue, identity.max_residual,
            info["roundtrip_max_error"], identity.global_sign)


print("mode (m,n) | Laplace eigenvalue | identity residual | roundtrip error")
for m, n in [(1, 0), (0, 2), (1, 1), (2, -1), (3, 3)]:
    lam, res, rt, sign = mode_row(m, n)
    print(f"  ({m:+d},{n:+d})   |   {lam:+9.6f}      |     {res:.2e}      |"
          f"   {rt:.2e}")
# the eigenvalue comes out as -(m^2 + n^2) and both residuals sit at
# round-off; the identity holds under one global sign for every mode

# ---------------------------------------------------------------------------
# stagnation points of the shipped scenario F = cos(u) + cos(v)/2

data = BeltramiData("cos(u) + cos(v)/2")
form, info = contact_from_beltrami(data)
print(f"\nshipped scenario roundtrip: stream recovered = "
      f"{info['stream_recovered']} (error {info['roundtrip_max_error']:.1e})")

points = find_critical_points(exceptional_hamiltonian(form))
print("\nstagnation points and their full 3d spectra:")
for p in sorted(points, key=lambda q: (round(q.u, 6), round(q.v, 6))):
    r = beltrami_stability_matrix(data, point=(p.u, p.v))
    eigs = ", ".join(f"{e:+.3f}" for e in np.sort_complex(r.eigenvalues))
    print(f"  (u,v) = ({p.u:4.2f}, {p.v:4.2f})  F = {r.stream_at_p:+.2f} "
          f" {r.kind:28s} [{eigs}]")
# saddles of F give hyperbolic 2d transverse manifolds; extrema give the
# nonhyperbolic center-like points whose only escape direction is the z-axis

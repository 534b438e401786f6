"""
Escape orbits on the round sphere
=================================

The singular contact form cos(theta) dz/z + sin^2(theta) dphi on S^2 x (-e, e)
has a Reeb field that blows up at the surface z = 0.  Its dynamics transverse
to the surface are controlled by the critical points of the induced
Hamiltonian on the sphere: the height function, with one minimum and one
maximum at the poles.  Each pole emits two escape orbits (one per side of the
surface), and four is exactly what the weighted census must find.
"""
import math

from bcontactlab import (
    BReebField, census_bound, escape_census, exceptional_hamiltonian,
    find_critical_points, load_scenario, stability_at,
    trace_invariant_manifolds,
)
from bcontactlab.scenarios import scenario_form

# -- build the geometry from the shipped scenario file ----------------------

scenario = load_scenario("sphere")
tub, form = scenario_form(scenario)
print(f"scenario: {scenario.name} ({scenario.option('description')})")
print(f"charts:   {sorted(tub.charts)}")

reeb = BReebField(form, tub)
zdata = exceptional_hamiltonian(form, tub)

# -- the two polar critical points ------------------------------------------

points = find_critical_points(zdata, tub)
print(f"\ncritical points of the surface Hamiltonian: {len(points)}")
reports = []
for p in points:
    r = stability_at(p, reeb, zdata)
    reports.append(r)
    print(f"  {p.chart:11s} (u={p.u:+.3f}, v={p.v:+.3f})  index {p.index}"
          f"  kind {r.kind}  transverse rate {r.lambda_z:+.3f}")

# both points are extrema: the transverse invariant manifold is a single
# curve hitting the surface along the z-axis, one orbit per side

# -- trace and count ---------------------------------------------------------

orbits = trace_invariant_manifolds(reeb, reports, tub)
print(f"\ntraced {len(orbits)} seeds; near-end verdicts:")
for o in orbits:
    z0 = o.seed.sigma * math.exp(o.seed.s)
    print(f"  seed {o.seed.chart} side {o.seed.sigma:+d} (z0 = {z0:+.2f})"
          f" -> {o.near_end.verdict} at distance {o.near_end.distance:.2e}")

bound = census_bound(points, [tub])  # Z is one component: one atlas
census = escape_census(orbits, bound, tub)

print(f"\ncensus: {census.n_distinct} distinct orbits, "
      f"weighted total {census.weighted_total}")
print(f"bound:  verdict {bound.verdict!r}, guaranteed >= {bound.lower_bound}, "
      f"expected weighted = {bound.expected_weighted}")
print(f"consistent: {census.consistent_with_bound}")

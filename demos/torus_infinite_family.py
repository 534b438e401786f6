"""
An infinite family of escape orbits on the torus
================================================

On a surface with first Betti number b1 > 0 the census verdict flips from a
finite count to "infinite": hyperbolic saddles of the surface Hamiltonian
carry two-dimensional invariant manifolds transverse to the surface, so a
whole one-parameter family of orbits funnels into each saddle.  This demo
makes that concrete by seeding a 16-direction fan around every saddle of the
shipped torus scenario and watching all of them converge.
"""
from collections import Counter

from bcontactlab import (
    BReebField, census_bound, escape_census, exceptional_hamiltonian,
    find_critical_points, load_scenario, stability_at,
    trace_invariant_manifolds,
)
from bcontactlab.scenarios import scenario_form

scenario = load_scenario("torus")
form = scenario_form(scenario)
reeb = BReebField(form)

points = find_critical_points(exceptional_hamiltonian(form))
reports = [stability_at(p, reeb) for p in points]

by_index = Counter(p.index for p in points)
print(f"critical points: {len(points)} "
      f"(minima {by_index[0]}, saddles {by_index[1]}, maxima {by_index[2]})")
print("Morse counts vs torus Betti numbers (1, 2, 1): "
      f"C = ({by_index[0]}, {by_index[1]}, {by_index[2]}), "
      f"Euler sum = {by_index[0] - by_index[1] + by_index[2]}")

# every saddle gets a fan of 16 seeds in the (tangential, transverse) plane;
# extrema get one seed per side as before
orbits = trace_invariant_manifolds(reeb, reports)
fan = [o for o in orbits if o.psi is not None]
print(f"\nseeds traced: {len(orbits)} ({len(fan)} fan seeds on saddles)")

converged = sum(1 for o in fan if o.near_end.verdict == "limits-to")
worst = max(o.near_end.distance for o in fan)
print(f"fan seeds limiting to their saddle: {converged}/{len(fan)}"
      f"  (worst final distance {worst:.2e})")

bound = census_bound(points, [form.atlas])  # Z is one component: one atlas
census = escape_census(orbits, bound, form.atlas)
print(f"\nbound verdict: {bound.verdict!r}  (b1 > 0 forces an infinite family)")
print(f"distinct sampled orbits: {census.n_distinct}, "
      f"consistent with the bound: {census.consistent_with_bound}")

# the same trajectories, in orbits.csv beside report.json, come from
#     bcontactlab census --scenario torus --out runs/torus

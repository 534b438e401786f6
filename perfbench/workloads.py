"""Scenario catalogues, the seeded deck generator and the report fingerprint.

Every workload draws its scenarios from a finite lattice over the parameter
ranges it covers.  A lattice, rather than continuous draws, lets every
scenario the generator can emit carry a reference fingerprint
(``golden.json``), so each run's outputs are checked against a known answer
and not only against themselves.  The seed picks which lattice points a run
sees and in what order; the same seed always yields the same deck.

The known defects of the program (a non-contact form exiting 1, a
three-body pass near a primary that never ends, ``epsilon = 1e300``
accepted) lie outside every range below: the torus and sphere forms are
contact forms (the fingerprint includes the contact check's pass flag), the
three-body orbits start far out (``r = 2 / x0**2 >= 22``) on near-circular
orbits, and ``epsilon`` is at most 0.7.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

GOLDEN_RATIO = (1 + 5 ** 0.5) / 2  # for the three-body a0 sequence

# Why each workload exists; README.md carries the longer form.
WHY = {
    "torus-fan": "scalar hot path: per-point expression walks, hundreds of "
                 "short event-ended RK45 runs, quadratic census dedupe",
    "sphere-grid": "batched numpy path: fine validation grids, 4-chart "
                   "critical scan and Beltrami checks, almost no RK45",
    "three-body": "one long 4-D RK45 run with a closed-form RHS and the "
                  "scipy polar oracle, no expression layer",
}

# What one scenario's work counts as, for the throughput metric.
WORK_UNIT = {
    "torus-fan": "fan seeds traced and classified",
    "sphere-grid": "validation grid points requested",
    "three-body": "model-time units integrated",
}


def _torus_entry(a, fan):
    return {
        "id": f"torus-a{a:.2f}-fan{fan}",
        "stratum": f"fan{fan}",
        "args": ["--seeds", str(fan)],
        "scenario": {
            "kind": "bcontact", "name": f"torus-a{a:.2f}", "surface": "torus",
            "epsilon": 0.5,
            "fields": {"torus": {"f": f"cos(v) + {a:.2f}*cos(u)*sin(v)",
                                 "beta_u": "sin(v)", "beta_v": "0",
                                 "beta_z": "0"}},
        },
    }


def _sphere_entry(eps, grid):
    return {
        "id": f"sphere-e{eps:.2f}-g{grid[0]}",
        "stratum": f"sphere{grid[0]}",
        "args": ["--grid", ",".join(str(n) for n in grid)],
        "scenario": {"kind": "bcontact", "name": f"sphere-e{eps:.2f}",
                     "surface": "sphere", "epsilon": eps,
                     "fields": _sphere_fields()},
    }


def _beltrami_entry(c, grid):
    return {
        "id": f"beltrami-c{c:.2f}-g{grid[0]}",
        "stratum": f"beltrami{grid[0]}",
        "args": ["--grid", ",".join(str(n) for n in grid)],
        "scenario": {"kind": "beltrami", "name": f"beltrami-c{c:.2f}",
                     "stream": f"cos(u) + {c:.2f}*cos(v)", "eigenvalue": 1.0,
                     "metric": {"h_uu": "1", "h_uv": "0", "h_vv": "1"}},
    }


def _three_body_entry(k, mu, x0, t_end):
    # a0 spread uniformly over the circle and P_a within 5% of the circular
    # value sqrt(r) = sqrt(2) / x0, both by low-discrepancy sequences in k
    a0 = round(2 * math.pi * ((k * GOLDEN_RATIO) % 1.0), 6)
    factor = 1.0 + 0.05 * (2.0 * ((k * math.sqrt(2)) % 1.0) - 1.0)
    pa0 = round(math.sqrt(2.0) / x0 * factor, 9)
    return {
        "id": f"three-body-m{mu:.2f}-x{x0:.2f}-k{k}",
        "stratum": f"x{x0:.2f}",
        "args": [],
        "scenario": {"kind": "mcgehee", "name": f"three-body-k{k}", "mu": mu,
                     "x0": x0, "a0": a0, "pr0": 0.0, "pa0": pa0,
                     "t_end": t_end},
    }


def _sphere_fields():
    """The round-sphere atlas fields (height function, four charts)."""
    return json.loads((HERE / "sphere_fields.json").read_text())


def _lattice(lo, hi, step):
    n = int(round((hi - lo) / step))
    return [round(lo + i * step, 2) for i in range(n + 1)]


def catalogue(workload, smoke=False):
    """Every scenario ``workload`` can run, in a fixed order."""
    if workload == "torus-fan":
        if smoke:
            return [_torus_entry(0.30, 16)]
        return [_torus_entry(a, fan) for fan in (16, 20, 24)
                for a in _lattice(0.10, 0.50, 0.02)]
    if workload == "sphere-grid":
        if smoke:
            return [_sphere_entry(0.50, (32, 32, 9)),
                    _beltrami_entry(0.50, (64, 64))]
        return ([_sphere_entry(e, g) for g in ((128, 128, 17), (160, 160, 17))
                 for e in _lattice(0.25, 0.70, 0.01)]
                + [_beltrami_entry(c, (256, 256))
                   for c in _lattice(0.20, 0.80, 0.01)])
    if workload == "three-body":
        if smoke:
            return [_three_body_entry(0, 0.20, 0.20, 20.0)]
        mus = _lattice(0.05, 0.50, 0.05)
        x0s = _lattice(0.12, 0.30, 0.03)
        return [_three_body_entry(k, mu, x0, 300.0)
                for k, (mu, x0, _) in enumerate(
                    (mu, x0, v) for x0 in x0s for mu in mus for v in range(3))]
    raise ValueError(f"unknown workload {workload!r}")


def _radical_inverse(k):
    """Base-2 van der Corput point k: each prefix of 2**m fills 2**m bins."""
    x, scale = 0.0, 0.5
    while k:
        x += scale * (k & 1)
        k >>= 1
        scale /= 2
    return x


def _stratified_walk(members, shift):
    """``members`` (sorted by parameter) in van der Corput order, rotated.

    Any prefix of the walk is spread evenly over the parameter range, and the
    seeded ``shift`` moves which lattice points fall in it.
    """
    n = len(members)
    order, seen = [], set()
    for k in range(64 * n):
        i = int(((shift + _radical_inverse(k)) % 1.0) * n)
        if i not in seen:
            seen.add(i)
            order.append(members[i])
    return order + [m for i, m in enumerate(members) if i not in seen]


def deck(workload, seed, smoke=False):
    """The seed's run order: strata interleaved, each walked stratified.

    Strata are the input properties the run time depends on most (fan size,
    grid, starting radius).  Interleaving them, and walking each one so that
    every prefix spans its parameter range, keeps any prefix of the deck,
    and so a time-bounded run, balanced.
    """
    rng = random.Random(f"{workload}:{seed}")
    strata = {}
    for entry in catalogue(workload, smoke):
        strata.setdefault(entry["stratum"], []).append(entry)
    walks = [_stratified_walk(strata[name], rng.random())
             for name in sorted(strata)]
    rng.shuffle(walks)
    order = []
    for i in range(max(len(w) for w in walks)):
        order.extend(w[i] for w in walks if i < len(w))
    return order


def grid_points(args):
    """Validation grid points a ``--grid`` argument requests (nz defaults to 9)."""
    dims = [int(n) for n in args[args.index("--grid") + 1].split(",")]
    if len(dims) == 2:
        dims.append(9)
    return math.prod(dims)


def work_of(workload, entry, report):
    """The scenario's work, fixed by its input (read once, at reference time)."""
    if workload == "torus-fan":
        return report["census"]["n_seeds"]
    if workload == "sphere-grid":
        return grid_points(entry["args"])
    return entry["scenario"]["t_end"]


def fingerprint_fields(report, exit_status):
    """The deterministic parts of a report that a correct run must reproduce."""
    fields = {"exit": exit_status, "kind": report.get("kind"),
              "verdict": report.get("verdict")}
    if "critical_points" in report:
        fields["critical_indices"] = [p["index"]
                                      for p in report["critical_points"]]
    if "census" in report:
        census = report["census"]
        fields["census"] = {k: census[k] for k in (
            "n_seeds", "n_distinct", "weighted_total", "verdict",
            "consistent_with_bound")}
    if "orbits" in report:
        fields["orbit_ends"] = [[o["near_end"]["verdict"],
                                 o["far_end"]["verdict"]]
                                for o in report["orbits"]]
    checks = report.get("checks")
    if isinstance(checks, list):
        fields["checks"] = {c["check"]: c["passed"] for c in checks}
    elif isinstance(checks, dict):
        fields["checks"] = {k: c["passed"] for k, c in checks.items()}
        fields["integrator_status"] = report["integrator"]["status"]
    if report.get("kind") == "beltrami":
        fields["checks"] = {
            "identity": report["identity"]["passed"],
            "laplace": report["laplace"]["verdict"],
            "stream_recovered": report["roundtrip"]["stream_recovered"],
            "contact_passed": report["roundtrip"]["contact_passed"],
            "stagnation_kinds": [s["kind"] for s in report["stagnation"]],
        }
    return fields


def fingerprint(report, exit_status):
    text = json.dumps(fingerprint_fields(report, exit_status), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

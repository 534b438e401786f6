"""Time the two evaluation paths of the orbit right-hand side by lane count.

Usage: python3 tools/small_batch_sweep.py [--repeat R]

``orbits.regularized_field`` evaluates fewer than ``orbits.SMALL_BATCH``
lanes point by point on floats and more in one array call.  For 4 to 24
lanes on three charts (the torus builtin's chart and the sphere builtin's
``north`` and ``north-pole`` charts), this prints the time of one array
call over the time of the float path for the same lanes; the two cost the
same where the ratio is 1.  Each ratio is the median over ``R`` repeats,
and a repeat times a loop of about 10 ms of each path back to back, so
that a host whose speed shifts between repeats moves both times of a
ratio together.  The last lines give, per chart, the break-even: the
first lane count whose ratio is at most 1.  It measures the checkout it
sits in: the package is imported from the ``src`` directory beside this
one.
"""
from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from bcontactlab import orbits  # noqa: E402
from bcontactlab.contact import BReebField  # noqa: E402
from bcontactlab.scenarios import load_scenario, scenario_form  # noqa: E402

CHARTS = (("torus", "torus"), ("sphere", "north"), ("sphere", "north-pole"))
LANES = range(4, 25)


def _lanes(chart, n, rng):
    """n states (u, v, s) inside ``chart``, with z = e^s in (e^-8, e^-1)."""
    rows = []
    for _ in range(n):
        if chart.disk_radius > 0.0:
            r = 0.8 * chart.disk_radius * math.sqrt(rng.random())
            a = rng.uniform(0.0, 2.0 * math.pi)
            u, v = r * math.cos(a), r * math.sin(a)
        else:
            (u0, u1), (v0, v1) = chart.u_range, chart.v_range
            u = rng.uniform(u0 + 0.1 * (u1 - u0), u1 - 0.1 * (u1 - u0))
            v = rng.uniform(v0 + 0.1 * (v1 - v0), v1 - 0.1 * (v1 - v0))
        rows.append((u, v, rng.uniform(-8.0, -1.0)))
    return np.array(rows)


def _seconds(rhs, y, batch, loops):
    """Mean time of ``loops`` calls ``rhs(0, y, sigma)`` with
    ``SMALL_BATCH`` at ``batch``, every lane above Z."""
    sigma = np.ones(len(y), dtype=int)
    saved, orbits.SMALL_BATCH = orbits.SMALL_BATCH, batch
    try:
        return timeit.timeit(lambda: rhs(0.0, y, sigma), number=loops) / loops
    finally:
        orbits.SMALL_BATCH = saved


def _ratio(rhs, y, repeat):
    """Median over ``repeat`` repeats of the array time over the float
    time; a repeat times a loop of about 10 ms of each, back to back."""
    batches = (0, len(y) + 1)  # one array call; point by point
    loops = [max(1, int(0.01 / _seconds(rhs, y, b, 1))) for b in batches]
    ratios = []
    for _ in range(repeat):
        arr, flt = (_seconds(rhs, y, b, n) for b, n in zip(batches, loops))
        ratios.append(arr / flt)
    return statistics.median(ratios)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    rng = random.Random(16)
    ratios = {}
    for scenario, name in CHARTS:
        form = scenario_form(load_scenario(scenario))
        rhs = orbits.regularized_field(BReebField(form), name)
        ratios[name] = {n: _ratio(rhs, _lanes(form.atlas.charts[name], n, rng),
                                  args.repeat) for n in LANES}
    print(f"current SMALL_BATCH = {orbits.SMALL_BATCH}")
    print("array/float time ratio of regularized_field by lane count")
    print("lanes " + "".join(f"{name:>12}" for name in ratios))
    for n in LANES:
        print(f"{n:5d} " + "".join(f"{r[n]:12.2f}" for r in ratios.values()))
    for name, r in ratios.items():
        even = next((n for n in LANES if r[n] <= 1.0), None)
        print(f"{name}: break-even at {even} lanes" if even is not None else
              f"{name}: no break-even up to {LANES[-1]} lanes")


if __name__ == "__main__":
    main()

"""Time one RK45 step outside the right-hand side, by lane count.

Usage: python3 tools/rk45_step_cost.py [--repeat R]

``rk45.integrate`` advances every live lane in lockstep, so its cost
outside the right-hand side (RHS) is paid once per step of the batch,
whatever the lane count.  For 1, 4, 16 and 64 lanes of a linear 4-D
system (two rotations at different speeds), and for one ``(4,)`` state
of it, which runs on Python floats (the ``float`` row), this prints the
µs of one step outside the RHS: the wall time of ``integrate`` less the
time spent in its RHS calls, over the steps attempted (each step calls
the RHS six times, after two calls before the first).  The RHS costs
about as much at every lane count, so the columns compare.  Each value
is the median over ``R`` repeats of one run of about 1,000 steps.  It
measures the checkout it sits in: the package is imported from the
``src`` directory beside this one.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from bcontactlab.rk45 import integrate  # noqa: E402

LANES = (1, 4, 16, 64)
# y' = y·M: (y0, y1) turns at rate 1 and (y2, y3) at rate 2
M = np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, -2.0], [0.0, 0.0, 2.0, 0.0]])
SPAN = (0.0, 13.0)


def _float_rhs(y):
    """``y @ M`` on one state of floats."""
    y0, y1, y2, y3 = y
    return y1, -y0, 2.0 * y3, -2.0 * y2


def _step_us(y0):
    """µs per attempted step outside the RHS, of one run from ``y0``."""
    rhs_s = 0.0
    calls = 0
    lanes = y0.ndim == 2

    def rhs(t, y):
        nonlocal rhs_s, calls
        start = time.perf_counter()
        dy = y @ M if lanes else _float_rhs(y)
        rhs_s += time.perf_counter() - start
        calls += 1
        return dy

    start = time.perf_counter()
    integrate(rhs, y0, SPAN)
    wall = time.perf_counter() - start
    return 1e6 * (wall - rhs_s) / ((calls - 2) / 6)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(28)
    states = {n: rng.uniform(0.5, 1.0, (n, 4)) for n in LANES}
    states["float"] = states[1][0]
    for n in (1, "float"):   # warm up: imports and first-call costs
        _step_us(states[n])
    us = {n: statistics.median(_step_us(y0) for _ in range(args.repeat))
          for n, y0 in states.items()}
    print("RK45 step cost outside the RHS, linear 4-D system")
    print(f"{'lanes':>5} {'us/step':>10} {'us/lane-step':>13}")
    for n in LANES:
        print(f"{n:5d} {us[n]:10.1f} {us[n] / n:13.2f}")
    print(f"{'float':>5} {us['float']:10.1f} {us['float']:13.2f}")


if __name__ == "__main__":
    main()

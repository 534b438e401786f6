"""Adaptive embedded Runge–Kutta 5(4) integration (Dormand–Prince pair).

One integrator serves the whole package: the regularized Reeb flow and
the three-body dynamics.  Features:

* FSAL evaluation (6 right-hand-side calls per accepted step);
* PI step-size control with safety 0.9 and growth clamped to [0.2, 10];
* forward and backward time (pass t_span with t1 < t0);
* the classic fourth-order dense-output interpolant, used to localize
  event crossings to machine precision in the step variable;
* terminal events with a crossing direction, checked once per accepted
  step at its end (no dense subsamples); the earliest crossing wins;
* a per-step ``stop`` predicate for cheap region checks.

The error estimate is the RMS of the embedded difference scaled by
atol + rtol·max(|y_n|, |y_{n+1}|) per component; a step is accepted when
that norm is at most 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepSizeUnderflow", "NonFiniteState", "Event", "Trajectory", "integrate",
]

MIN_STEP = 1e-14
MAX_FACTOR = 10.0
MIN_FACTOR = 0.2
SAFETY = 0.9
ALPHA = 0.7 / 5.0  # PI proportional exponent
BETA = 0.4 / 5.0   # PI integral exponent


class StepSizeUnderflow(RuntimeError):
    """The controller pushed the step below the representable floor."""


class NonFiniteState(RuntimeError):
    """The state or its derivative stopped being finite."""


# Butcher tableau (nodes, stage weights, 5th/4th order weights)
C2, C3, C4, C5, C6 = 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                           49 / 176, -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
BS1, BS3, BS4, BS5, BS6, BS7 = (5179 / 57600, 7571 / 16695, 393 / 640,
                                -92097 / 339200, 187 / 2100, 1 / 40)
# dense-output weights for the quartic interpolant
D1 = -12715105075 / 11282082432
D3 = 87487479700 / 32700410799
D4 = -10690763975 / 1880347072
D5 = 701980252875 / 199316789632
D6 = -1453857185 / 822651844
D7 = 69997945 / 29380423


@dataclass
class Event:
    """Terminal crossing detector g(t, y); ends the run when g changes sign."""

    fn: object
    direction: int  # +1: − to +, −1: + to −
    name: str

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError("event direction must be +1 or -1")


@dataclass
class Trajectory:
    t: np.ndarray
    y: np.ndarray  # shape (n_samples, dim)
    status: str
    n_steps: int
    n_rejected: int
    n_fev: int
    min_step: float
    max_step: float

    @property
    def t_final(self):
        return float(self.t[-1])

    @property
    def y_final(self):
        return self.y[-1]

    def stats_dict(self):
        return {
            "status": self.status, "n_steps": self.n_steps,
            "n_rejected": self.n_rejected, "n_fev": self.n_fev,
            "min_step": self.min_step, "max_step": self.max_step,
        }


class _DenseSegment:
    """Quartic interpolant over one accepted step [t, t + h]."""

    def __init__(self, t, h, y_old, y_new, k1, k3, k4, k5, k6, k7):
        ydiff = y_new - y_old
        bspl = h * k1 - ydiff
        self.t, self.h = t, h
        self.r1 = y_old
        self.r2 = ydiff
        self.r3 = bspl
        self.r4 = ydiff - h * k7 - bspl
        self.r5 = h * (D1 * k1 + D3 * k3 + D4 * k4 + D5 * k5 + D6 * k6 + D7 * k7)

    def __call__(self, t):
        s = (t - self.t) / self.h
        s1 = 1.0 - s
        return self.r1 + s * (self.r2 + s1 * (self.r3 + s * (self.r4 + s1 * self.r5)))


def _error_norm(err, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f, t0, y0, f0, direction, rtol, atol, span):
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(f(t0 + h0 * direction, y1), dtype=float)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _locate_crossing(g, seg, t_lo, t_hi, g_lo):
    """Bisect the event function on the dense interpolant."""
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:
            break
        g_mid = g(t_mid, seg(t_mid))
        if (g_mid < 0) == (g_lo < 0):
            t_lo = t_mid
            g_lo = g_mid
        else:
            t_hi = t_mid
    return t_hi


def integrate(f, y0, t_span, rtol=1e-10, atol=1e-12, events=(), stop=None,
              max_steps=500000):
    """Integrate ẏ = f(t, y) over t_span, adaptively.

    ``events`` is a sequence of :class:`Event`; the first crossing in the
    direction of integration ends the run there with status
    ``"event:<name>"``.  ``stop(t, y)`` is checked after every accepted
    step; a non-None string return truncates the run with that status.
    Backward integration: pass t_span = (t0, t1) with t1 < t0.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError("state must be a flat vector")
    ts = [t0]
    ys = [y.copy()]

    if t1 == t0:
        return Trajectory(np.array(ts), np.array(ys), "reached-end",
                          0, 0, 0, math.inf, 0.0)

    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    t = t0
    k1 = np.asarray(f(t, y), dtype=float)
    if not np.all(np.isfinite(k1)):
        raise NonFiniteState(f"non-finite derivative at t = {t!r}")
    h = _initial_step(f, t0, y, k1, direction, rtol, atol, span)
    n_fev = 2  # k1 and the initial-step probe
    err_old = 1e-4
    n_steps = n_rejected = 0
    hmin_seen, hmax_seen = math.inf, 0.0
    g_prev = [ev.fn(t, y) for ev in events]
    status = None

    while status is None:
        if n_steps + n_rejected > max_steps:
            raise RuntimeError(f"integration exceeded {max_steps} steps")
        if h < MIN_STEP:
            raise StepSizeUnderflow(
                f"step size {h:.3e} underflowed at t = {t!r}")
        h = min(h, abs(t1 - t))
        hd = direction * h

        with np.errstate(invalid="ignore", over="ignore"):
            k2 = np.asarray(f(t + C2 * hd, y + hd * (A21 * k1)), dtype=float)
            k3 = np.asarray(f(t + C3 * hd, y + hd * (A31 * k1 + A32 * k2)),
                            dtype=float)
            k4 = np.asarray(f(t + C4 * hd, y + hd * (A41 * k1 + A42 * k2
                                                     + A43 * k3)), dtype=float)
            k5 = np.asarray(f(t + C5 * hd, y + hd * (A51 * k1 + A52 * k2
                                                     + A53 * k3 + A54 * k4)),
                            dtype=float)
            k6 = np.asarray(f(t + hd, y + hd * (A61 * k1 + A62 * k2 + A63 * k3
                                                + A64 * k4 + A65 * k5)),
                            dtype=float)
            y_new = y + hd * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
            t_new = t + hd
            k7 = np.asarray(f(t_new, y_new), dtype=float)
        n_fev += 6
        if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(k7))):
            raise NonFiniteState(f"non-finite state near t = {t_new!r}")

        err_vec = hd * ((B1 - BS1) * k1 + (B3 - BS3) * k3 + (B4 - BS4) * k4
                        + (B5 - BS5) * k5 + (B6 - BS6) * k6 - BS7 * k7)
        err = _error_norm(err_vec, y, y_new, rtol, atol)

        if err > 1.0:  # reject
            n_rejected += 1
            h *= max(MIN_FACTOR, SAFETY * max(err, 1e-16) ** -0.2)
            continue

        # accepted
        n_steps += 1
        hmin_seen = min(hmin_seen, h)
        hmax_seen = max(hmax_seen, h)
        seg = _DenseSegment(t, hd, y, y_new, k1, k3, k4, k5, k6, k7)

        # events at the step end; the earliest located crossing ends the run
        cut = None  # (t*, status)
        for i, ev in enumerate(events):
            g_a, g_b = g_prev[i], ev.fn(t_new, y_new)
            fired = (g_a < 0 <= g_b) if ev.direction > 0 else (g_a > 0 >= g_b)
            if fired:
                t_star = _locate_crossing(ev.fn, seg, t, t_new, g_a)
                if cut is None or direction * (cut[0] - t_star) > 0:
                    cut = (t_star, f"event:{ev.name}")
            g_prev[i] = g_b
        if cut is not None:
            t, status = cut
            ts.append(t)
            ys.append(seg(t))
            break

        t, y, k1 = t_new, y_new, k7
        ts.append(t)
        ys.append(y.copy())

        if stop is not None:
            reason = stop(t, y)
            if reason is not None:
                status = reason
                break

        if direction * (t1 - t) <= 0:
            status = "reached-end"
            break

        factor = min(MAX_FACTOR,
                     max(MIN_FACTOR,
                         SAFETY * max(err, 1e-16) ** -ALPHA * err_old ** BETA))
        h *= factor
        err_old = max(err, 1e-16)

    return Trajectory(
        np.array(ts), np.array(ys), status, n_steps, n_rejected, n_fev,
        hmin_seen if n_steps else math.inf, hmax_seen)

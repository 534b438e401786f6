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

Lanes.  The state is always an array of shape ``(lanes, dim)``: that many
independent problems integrated in lockstep, one problem being one lane.
``f`` is called once per stage with the states of every live lane, and
each lane keeps its own time direction, step size, error history,
accept/reject decision, counters, events and status, so every lane takes
exactly the steps a run of its own would take.  Failures are held per
lane: a lane whose run fails (non-finite state, step-size underflow, the
step budget) ends holding the exception, and the other lanes go on; what
``f`` raises leaves :func:`integrate`.  A lane that ends (an event,
``stop``, the end of its span, or a failure) drops out of the live arrays;
they are compacted only then, so a usual step indexes nothing.  A lane
whose event fires ends in that step, and its crossing does not affect any
other lane, so the crossings of all lanes are located after the loop:
bisected together on their steps' dense interpolants, each frozen where a
run of its own would stop bisecting.

A lane may carry a constant of its own (``per_lane``, one entry per lane):
it is compacted with the lanes and handed to ``f`` beside the live states,
so problems that differ only in a parameter share one batch.

Bit identity between a lane and a run of its own rests on elementwise
arithmetic, which numpy rounds as Python does.  numpy's ``power`` is not
libm's ``pow`` (they differ by an ulp on a few percent of arguments), so
the step controller's powers — the rejection factor ``err**-0.2``, the
PI factor ``err**-ALPHA · err_old**BETA`` and the initial step's
``(0.01/m)**0.2`` — are computed per lane on Python floats.

The tableau weights are 0-d float64 arrays, and ``rtol`` and ``atol``
become 0-d arrays for the run.  That is for speed, not for precision: a
Python float is a float64, so an elementwise product or sum rounds alike
either way, but numpy converts a Python float operand on every call,
which costs more than the product of a few lanes.  For the same reason
the step column ``h`` is made full shape once per step, so that no
product of the stages broadcasts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepSizeUnderflow", "NonFiniteState", "Event", "Trajectory", "Lanes",
    "integrate",
]

MIN_STEP = 1e-14
MAX_FACTOR = 10.0
MIN_FACTOR = 0.2
SAFETY = 0.9
ALPHA = 0.7 / 5.0  # PI proportional exponent
BETA = 0.4 / 5.0   # PI integral exponent
MAX_STEPS = 500000  # attempted steps before a lane fails


class StepSizeUnderflow(RuntimeError):
    """The controller pushed the step below the representable floor."""


class NonFiniteState(RuntimeError):
    """The state or its derivative stopped being finite."""


# Butcher tableau (nodes, stage weights, 5th/4th order weights); the
# weights are 0-d float64 arrays (see the module docstring)
C2, C3, C4, C5, C6 = 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0
A21 = np.array(1 / 5)
A31, A32 = map(np.array, (3 / 40, 9 / 40))
A41, A42, A43 = map(np.array, (44 / 45, -56 / 15, 32 / 9))
A51, A52, A53, A54 = map(np.array, (19372 / 6561, -25360 / 2187,
                                    64448 / 6561, -212 / 729))
A61, A62, A63, A64, A65 = map(np.array, (9017 / 3168, -355 / 33,
                                         46732 / 5247, 49 / 176,
                                         -5103 / 18656))
B1, B3, B4, B5, B6 = map(np.array, (35 / 384, 500 / 1113, 125 / 192,
                                    -2187 / 6784, 11 / 84))
BS1, BS3, BS4, BS5, BS6, BS7 = map(np.array, (
    5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100,
    1 / 40))
# error weights B_i − BS_i (BS7 enters the error as − BS7·k7)
E1, E3, E4, E5, E6 = (np.array(b - bs) for b, bs in (
    (B1, BS1), (B3, BS3), (B4, BS4), (B5, BS5), (B6, BS6)))
NODES = np.array([C2, C3, C4, C5, C6])
# dense-output weights for the quartic interpolant
D1 = -12715105075 / 11282082432
D3 = 87487479700 / 32700410799
D4 = -10690763975 / 1880347072
D5 = 701980252875 / 199316789632
D6 = -1453857185 / 822651844
D7 = 69997945 / 29380423


@dataclass
class Event:
    """Terminal crossing detector g(t, y); ends a lane when g changes sign.

    ``fn`` takes the live lanes' times ``(live,)`` and states
    ``(live, dim)`` and returns one value per lane.
    """

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

    def stats_dict(self):
        return {
            "status": self.status, "n_steps": self.n_steps,
            "n_rejected": self.n_rejected, "n_fev": self.n_fev,
            "min_step": self.min_step, "max_step": self.max_step,
        }


class Lanes(list):
    """Per-lane results of a batch: a :class:`Trajectory`, or the exception
    that ended the lane.  The work counters ``n_fev``, ``n_steps`` and
    ``n_rejected`` are totals over every lane, the work of a lane that
    failed included; :func:`integrate` sets them."""


class _DenseSegment:
    """Quartic interpolants over one accepted step [t, t + h] of some lanes."""

    def __init__(self, t, h, y_old, y_new, k1, k3, k4, k5, k6, k7):
        hc = h[:, None]
        ydiff = y_new - y_old
        bspl = hc * k1 - ydiff
        self.t, self.h = t, h
        self.r1 = y_old
        self.r2 = ydiff
        self.r3 = bspl
        self.r4 = ydiff - hc * k7 - bspl
        self.r5 = hc * (D1 * k1 + D3 * k3 + D4 * k4 + D5 * k5 + D6 * k6
                        + D7 * k7)

    def __call__(self, t):
        s = ((t - self.t) / self.h)[:, None]
        s1 = 1.0 - s
        return self.r1 + s * (self.r2 + s1 * (self.r3 + s * (self.r4 + s1 * self.r5)))


def _bisect(events, which, seg, t_lo, t_hi, neg_lo):
    """Bisect crossings of the events ``which`` on the dense interpolants.

    ``neg_lo`` is the sign of g at each bracket's low end; it never
    changes.  A crossing freezes once its midpoint no longer splits its
    bracket, where a one-lane loop stops; the loop ends when all have, or
    after 80 halvings.
    """
    first, *others = sorted(set(which.tolist()))
    masks = [which == i for i in others]
    run = np.ones(len(t_lo), dtype=bool)
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        run &= (t_mid != t_lo) & (t_mid != t_hi)
        if not run.any():
            break
        y_mid = seg(t_mid)
        g_mid = events[first].fn(t_mid, y_mid)
        for i, mask in zip(others, masks):
            g_mid = np.where(mask, events[i].fn(t_mid, y_mid), g_mid)
        low = run & ((g_mid < 0) == neg_lo)
        t_lo = np.where(low, t_mid, t_lo)
        t_hi = np.where(run ^ low, t_mid, t_hi)
    return t_hi


def _rms(x, dim):
    return np.sqrt(np.add.reduce(x * x, axis=1) / dim)


def _initial_step(f, t0, y0, f0, direction, rtol, atol, span):
    """First step size of each lane."""
    dim = y0.shape[1]
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale, dim).tolist()
    d1 = _rms(f0 / scale, dim).tolist()
    h0 = np.array([1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b
                   for a, b in zip(d0, d1)])
    y1 = y0 + (h0 * direction)[:, None] * f0
    f1 = np.asarray(f(t0 + h0 * direction, y1), dtype=float)
    d2 = (_rms((f1 - f0) / scale, dim) / h0).tolist()
    steps = []
    for a, b, c, s in zip(h0.tolist(), d1, d2, span.tolist()):
        m = max(b, c)
        h1 = max(1e-6, a * 1e-3) if m <= 1e-15 else (0.01 / m) ** 0.2
        steps.append(min(100 * a, h1, s))
    return np.array(steps)


def integrate(f, y0, t_span, rtol=1e-10, atol=1e-12, events=(), stop=None,
              per_lane=None):
    """Integrate ẏ = f(t, y) over t_span, adaptively, for each lane of
    ``y0``, an array of shape ``(lanes, dim)``; returns :class:`Lanes`.

    ``t0`` and ``t1`` of ``t_span`` may be one value per lane; a lane with
    t1 < t0 runs backward.  ``f(t, y)``, each event function and ``stop``
    receive the live lanes' times ``(live,)`` and states ``(live, dim)``.
    ``events`` is a sequence of :class:`Event`; a lane's first crossing in
    its direction of integration ends it there with status
    ``"event:<name>"``.  ``stop(t, y)`` is checked after every accepted
    step and returns None or one reason (or None) per live lane; a reason
    ends its lane with that status.  A lane that fails holds its exception
    in place of a :class:`Trajectory`; nothing is raised for it.

    ``f``, the event functions and ``stop`` run with numpy's ``over`` and
    ``invalid`` warnings off, as does the whole integration: the
    finiteness checks report a non-finite state (:class:`NonFiniteState`)
    instead.

    ``per_lane`` is an array with one entry per lane.  ``f`` is then called
    as ``f(t, y, values)`` with the live lanes' entries, in the order of
    their states; events and ``stop`` do not see them.  Without it ``f`` is
    called as ``f(t, y)``.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise ValueError("the state must be a (lanes, dim) array")
    if per_lane is not None:
        per_lane = np.asarray(per_lane)
        if per_lane.shape[:1] != y.shape[:1]:
            raise ValueError("per_lane needs one entry per lane")
    with np.errstate(invalid="ignore", over="ignore"):
        return _integrate(f, y, t_span, rtol, atol, events, stop, per_lane)


def _integrate(f, y0, t_span, rtol, atol, events, stop, per_lane=None):
    n, dim = y0.shape
    rtol, atol = np.asarray(rtol, dtype=float), np.asarray(atol, dtype=float)
    t0 = np.broadcast_to(np.asarray(t_span[0], dtype=float), (n,)).copy()
    t1 = np.broadcast_to(np.asarray(t_span[1], dtype=float), (n,)).copy()
    out = Lanes([None] * n)
    # lane -> (status or exception, attempted steps, RHS evaluations)
    ended = {}
    # samples in the order taken: (lanes, t, y, size of the step to them)
    blocks = [(np.arange(n), t0, y0, np.full(n, math.nan))]

    idx = np.flatnonzero(t1 != t0)
    for lane in np.flatnonzero(t1 == t0).tolist():
        ended[lane] = ("reached-end", 0, 0)
    t, t1, y = t0[idx], t1[idx], y0[idx]
    if not len(idx):
        return _assemble(out, ended, blocks)
    # the call is chosen once: ``f`` as given, or ``f`` with the live lanes'
    # values, where ``arg`` is compacted with the lanes and read at each call
    arg = None if per_lane is None else per_lane[idx]
    if arg is not None:
        f_lanes = f

        def f(t, y):
            return f_lanes(t, y, arg)
    dirn = np.where(t1 > t, 1.0, -1.0)
    k1 = np.asarray(f(t, y), dtype=float)
    good = np.isfinite(k1).all(axis=1)
    if not good.all():
        for lane, tk in zip(idx[~good].tolist(), t[~good].tolist()):
            ended[lane] = (NonFiniteState(
                f"non-finite derivative at t = {tk!r}"), 0, 1)
        idx, t, t1, dirn, y, k1 = (a[good] for a in (idx, t, t1, dirn, y, k1))
        if arg is not None:
            arg = arg[good]
        if not len(idx):
            return _assemble(out, ended, blocks)
    # with t1d = dirn·t1, rem = t1d − dirn·t is |t1 − t| bit for bit
    # (negation is exact), and the lane has reached t1 once rem ≤ 0
    t1d = dirn * t1
    rem = t1d - dirn * t
    h = _initial_step(f, t, y, k1, dirn, rtol, atol, rem)
    h_low = h.min()
    err_old = [1e-4] * len(idx)
    g_prev = [np.asarray(ev.fn(t, y), dtype=float) for ev in events]
    crossings = []   # blocks of fired events: lane, event, step data
    # attempted steps and RHS evaluations so far, the same for every live
    # lane: k1 and the initial step's probe, then 6 per attempted step
    it, fev = 0, 2
    ones = np.ones(dim)

    while len(idx):
        if it > MAX_STEPS:
            for lane in idx.tolist():
                ended[lane] = (RuntimeError(
                    f"integration exceeded {MAX_STEPS} steps"), it, fev)
            break
        if h_low < MIN_STEP:
            under = h < MIN_STEP
            for lane, hk, tk in zip(idx[under].tolist(), h[under].tolist(),
                                    t[under].tolist()):
                ended[lane] = (StepSizeUnderflow(
                    f"step size {hk:.3e} underflowed at t = {tk!r}"), it,
                    fev)
            idx, t, t1d, dirn, rem, y, k1, h, err_old, g_prev, arg = _compact(
                ~under, idx, t, t1d, dirn, rem, y, k1, h, err_old, g_prev, arg)
            if not len(idx):
                break
        h = np.minimum(h, rem)
        hd = dirn * h
        hc = hd[:, None]
        ts = t[:, None] + hc * NODES   # t + c·hd for the stages 2 to 7
        hc = hc * ones   # full shape, so no product below broadcasts

        k2 = np.asarray(f(ts[:, 0], y + hc * (A21 * k1)), dtype=float)
        k3 = np.asarray(f(ts[:, 1], y + hc * (A31 * k1 + A32 * k2)),
                        dtype=float)
        k4 = np.asarray(f(ts[:, 2], y + hc * (A41 * k1 + A42 * k2
                                              + A43 * k3)), dtype=float)
        k5 = np.asarray(f(ts[:, 3], y + hc * (A51 * k1 + A52 * k2
                                              + A53 * k3 + A54 * k4)),
                        dtype=float)
        k6 = np.asarray(f(ts[:, 4], y + hc * (A61 * k1 + A62 * k2
                                              + A63 * k3 + A64 * k4
                                              + A65 * k5)), dtype=float)
        y_new = y + hc * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
        t_new = ts[:, 4]
        k7 = np.asarray(f(t_new, y_new), dtype=float)
        err_vec = hc * (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6
                        - BS7 * k7)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(err_vec / scale, dim)
        # a finite sum means finite terms; an overflowing one only sends
        # the step through the per-lane check below
        finite = math.isfinite(np.add.reduce(y_new, axis=None)
                               + np.add.reduce(k7, axis=None))
        it += 1
        fev += 6

        # step control, per lane on Python floats (see the module docstring)
        h_next, err_next = [], []
        every = finite
        for hk, e, old in zip(h.tolist(), err.tolist(), err_old):
            e = max(e, 1e-16)
            if e > 1.0:
                h_next.append(hk * max(MIN_FACTOR, SAFETY * e ** -0.2))
                err_next.append(old)
                every = False
            else:
                h_next.append(hk * min(MAX_FACTOR, max(
                    MIN_FACTOR, SAFETY * e ** -ALPHA * old ** BETA)))
                err_next.append(e)

        done = None   # lanes that end in this step
        if every:
            acc = a = slice(None)
        else:
            ok = np.isfinite(y_new).all(axis=1) & np.isfinite(k7).all(axis=1)
            done = ~ok
            for lane, tk in zip(idx[done].tolist(), t_new[done].tolist()):
                ended[lane] = (NonFiniteState(
                    f"non-finite state near t = {tk!r}"), it, fev)
            acc = ok & ~(err > 1.0)
            a = np.flatnonzero(acc)

        # events at the step end: a lane where one fires ends in this step;
        # its crossings are located after the loop (see _cut)
        hit = None
        for i, ev in enumerate(events if every or len(a) else ()):
            g_b = np.asarray(ev.fn(t_new[a], y_new[a]), dtype=float)
            g_a = g_prev[i][a]
            fired = ((g_a < 0) & (0 <= g_b) if ev.direction > 0
                     else (g_a > 0) & (0 >= g_b))
            if every:
                g_prev[i] = g_b
            else:
                g_prev[i] = g_prev[i].copy()
                g_prev[i][a] = g_b
            if not fired.any():
                continue
            rows = np.flatnonzero(fired) if every else a[fired]
            crossings.append((
                idx[rows], np.full(len(rows), i), np.full(len(rows), it),
                np.full(len(rows), fev),
                dirn[rows], h[rows], g_a[fired] < 0, t[rows], t_new[rows],
                hd[rows], y[rows], y_new[rows], k1[rows], k3[rows], k4[rows],
                k5[rows], k6[rows], k7[rows]))
            if hit is None:
                hit = np.zeros(len(idx), dtype=bool)
            hit[rows] = True

        rem_new = t1d - dirn * t_new
        if every:
            t, y, k1, rem = t_new, y_new, k7, rem_new
        else:
            t = np.where(acc, t_new, t)
            y = np.where(acc[:, None], y_new, y)
            k1 = np.where(acc[:, None], k7, k1)
            rem = np.where(acc, rem_new, rem)
        if hit is None:   # go: the lanes that took a step and go on
            go = acc
        else:
            go = ~hit if every else acc & ~hit
            done = hit if done is None else done | hit
        blocks.append((idx, t, y, h) if isinstance(go, slice)
                      else (idx[go], t[go], y[go], h[go]))

        reasons = None
        if stop is not None and (isinstance(go, slice) or go.any()):
            reasons = stop(t[go], y[go])
        if reasons is not None:
            rows = np.arange(len(idx))[go].tolist()
            for row, reason in zip(rows, reasons):
                if reason is not None:
                    ended[int(idx[row])] = (reason, it, fev)
                    if done is None:
                        done = np.zeros(len(idx), dtype=bool)
                    done[row] = True
        if min(rem.tolist()) <= 0:   # only lanes that stepped can get there
            end = rem <= 0
            if done is not None:
                end &= ~done
            for row in np.flatnonzero(end).tolist():
                ended[int(idx[row])] = ("reached-end", it, fev)
            done = end if done is None else done | end

        h = np.array(h_next)
        h_low = min(h_next)
        err_old = err_next
        if done is not None and done.any():
            idx, t, t1d, dirn, rem, y, k1, h, err_old, g_prev, arg = _compact(
                ~done, idx, t, t1d, dirn, rem, y, k1, h, err_old, g_prev, arg)
            h_low = h.min(initial=math.inf)

    if crossings:
        _cut(events, crossings, ended, blocks)
    return _assemble(out, ended, blocks)


def _cut(events, crossings, ended, blocks):
    """Locate every recorded event crossing and end its lane there.

    All crossings are bisected together on their steps' dense
    interpolants; a lane where several events fired in one step ends at
    the earliest crossing, the first event winning a tie.
    """
    (lanes, which, steps, fevs, dirn, h, neg, t_lo, t_hi, hd, y, y_new, k1,
     k3, k4, k5, k6, k7) = (np.concatenate(c) for c in zip(*crossings))
    seg = _DenseSegment(t_lo, hd, y, y_new, k1, k3, k4, k5, k6, k7)
    t_star = _bisect(events, which, seg, t_lo, t_hi, neg)
    first = {}   # lane -> its winning crossing
    ts = t_star.tolist()
    for k, (lane, d) in enumerate(zip(lanes.tolist(), dirn.tolist())):
        if lane not in first or d * (ts[first[lane]] - ts[k]) > 0:
            first[lane] = k
    rows = np.array(list(first.values()))
    blocks.append((lanes[rows], t_star[rows], seg(t_star)[rows], h[rows]))
    for k in rows.tolist():
        ended[int(lanes[k])] = (f"event:{events[which[k]].name}",
                                int(steps[k]), int(fevs[k]))


def _compact(keep, idx, t, t1d, dirn, rem, y, k1, h, err_old, g_prev, arg):
    """The live-lane state without the lanes that ended."""
    return (*(a[keep] for a in (idx, t, t1d, dirn, rem, y, k1, h)),
            [e for e, k in zip(err_old, keep.tolist()) if k],
            [g[keep] for g in g_prev], None if arg is None else arg[keep])


def _assemble(out, ended, blocks):
    """Split the recorded samples per lane into the ended lanes'
    trajectories, or their exceptions, and total the work of every lane:
    a lane's samples after the first are its accepted steps."""
    lanes = np.concatenate([b[0] for b in blocks])
    order = np.argsort(lanes, kind="stable")
    ts, ys, hs = (np.concatenate([b[k] for b in blocks])[order]
                  for k in (1, 2, 3))
    bounds = np.searchsorted(lanes[order], np.arange(len(out) + 1)).tolist()
    out.n_fev = out.n_steps = out.n_rejected = 0
    for lane, (status, attempts, fev) in ended.items():
        a, b = bounds[lane], bounds[lane + 1]
        steps = b - a - 1
        out.n_fev += fev
        out.n_steps += steps
        out.n_rejected += attempts - steps
        if isinstance(status, Exception):
            out[lane] = status
            continue
        out[lane] = Trajectory(
            ts[a:b], ys[a:b], status, steps, attempts - steps, fev,
            float(hs[a + 1:b].min()) if steps else math.inf,
            float(hs[a + 1:b].max()) if steps else 0.0)
    return out

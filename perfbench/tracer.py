"""Outside-in tracing: spans around calls into each layer's public functions.

The program is not changed.  :class:`Tracer` replaces names where the
program looks them up (a module attribute or a class attribute) with
wrappers that record one span per call, and puts the originals back on
:meth:`Tracer.uninstall`.  A span is (name, start, end, parent span, run
id); spans stay in memory and are written out when the worker ends.  Self
time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import time
from array import array

import numpy as np

# (attribute of bcontactlab.runner, span name): the runner's stage imports.
RUNNER_STAGES = [
    ("load_scenario", "scenarios.load"),
    ("scenario_form", "scenarios.build"),
    ("contact_check", "contact.contact_check"),
    ("solve_reeb", "contact.solve_reeb"),
    ("reeb_residual_report", "contact.reeb_residual_report"),
    ("verify_hamiltonian_identity", "contact.verify_hamiltonian_identity"),
    ("find_critical_points", "critical.find"),
    ("stability_at", "critical.stability"),
    ("trace_invariant_manifolds", "orbits.trace"),
    ("escape_census", "orbits.census"),
    ("hamiltonian_identity_check", "beltrami.identity"),
    ("laplace_eigen_check", "beltrami.laplace"),
    ("contact_from_beltrami", "beltrami.contact"),
    ("beltrami_stability_matrix", "beltrami.stability"),
    ("integrate_mcgehee", "mcgehee.integrate"),
    ("newtonian_oracle_compare", "mcgehee.oracle"),
    ("write_report", "runner.write_report"),
]
VALIDATE_SPANS = {"contact.contact_check", "contact.solve_reeb",
                  "contact.reeb_residual_report",
                  "contact.verify_hamiltonian_identity"}
BELTRAMI_SPANS = {"beltrami.identity", "beltrami.laplace", "beltrami.contact",
                  "beltrami.stability"}


def _points(x):
    """Number of points in a scalar, an array, or a jet over either."""
    return int(np.size(getattr(x, "value", x)))


class Tracer:
    """Span recorder plus the counts taken at the same call boundaries."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.points = array("q")
        self.stack = []
        self.run_id = -1
        self.counts = {}
        self.in_validate = 0
        self.validate_frames = []  # (chart, u, v, z) handed to frame_values
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, points=None, after=None, validate=False):
        """``fn`` wrapped to record a span; ``after(result)`` adds counts."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        code = self._name_ids[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(code)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.points.append(points(args, kwargs) if points else 0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.in_validate += validate
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()
                tracer.in_validate -= validate
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        from bcontactlab import contact, mcgehee, orbits, runner

        for attr, name in RUNNER_STAGES:
            self._patch(runner, attr, self.span(
                name, getattr(runner, attr), after=self._after(name),
                validate=name in VALIDATE_SPANS))
        self._patch(mcgehee, "integrate_mcgehee", self.span(
            "mcgehee.integrate", mcgehee.integrate_mcgehee))
        self._patch(contact, "evaluate", self.span(
            "expressions.evaluate", contact.evaluate,
            points=lambda a, k: _points(next(iter(a[1].values()), 0.0))))
        self._patch(contact, "frame_values", self.span(
            "contact.frame_values", self._frame_values(contact.frame_values),
            points=lambda a, k: _points(a[2])))
        self._patch(contact.BReebField, "components", self.span(
            "contact.components", contact.BReebField.components,
            points=lambda a, k: _points(a[1])))
        for module in (orbits, mcgehee):
            self._patch(module, "integrate", self._integrate(module.integrate))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _frame_values(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(cf, chart, u, v, z):
            if tracer.in_validate:
                tracer.validate_frames.append((chart.name, u, v, z))
                tracer._count("contact.validate.frame_points", _points(u))
            return fn(cf, chart, u, v, z)

        return wrapper

    def _integrate(self, fn):
        """rk45 ``integrate`` with its RHS, event functions and stop wrapped."""
        signature = inspect.signature(fn)
        rhs = functools.partial(self.span, "rk45.rhs")
        event = functools.partial(self.span, "rk45.event")

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            arguments = bound.arguments
            arguments["f"] = rhs(arguments["f"])
            if arguments.get("events"):
                arguments["events"] = [dataclasses.replace(ev, fn=event(ev.fn))
                                       for ev in arguments["events"]]
            if arguments.get("stop") is not None:
                arguments["stop"] = event(arguments["stop"])
            return fn(*bound.args, **bound.kwargs)

        return self.span("rk45.integrate", wrapper, after=self._after_rk45)

    def _after_rk45(self, traj):
        self._count("rk45.n_fev", traj.n_fev)
        self._count("rk45.n_steps", traj.n_steps)
        self._count("rk45.n_rejected", traj.n_rejected)

    def _after(self, name):
        if name == "critical.find":
            return lambda points: self._count("critical.points", len(points))
        if name == "orbits.trace":
            def after(orbits):
                self._count("orbits.seeds", len(orbits))
                self._count("orbits.limits_to", sum(
                    o.near_end.verdict == "limits-to" for o in orbits))
            return after
        if name == "orbits.census":
            return lambda census: self._count("orbits.distinct",
                                              census.n_distinct)
        return None

    # -- per-run bookkeeping ----------------------------------------------

    def begin_run(self, run_id):
        self.run_id = run_id

    def end_run(self):
        """Fold the run's validation points into a distinct-point count."""
        self._count("contact.validate.distinct_points",
                    _distinct_points(self.validate_frames))
        self.validate_frames = []

    # -- aggregation -------------------------------------------------------

    def span_table(self):
        """Arrays (name, start, end, parent, run, points, self time)."""
        name = np.array(self.name_id, dtype=np.int16)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return {"name": name, "start": start, "end": end, "parent": parent,
                "run": np.array(self.run, dtype=np.int64),
                "points": np.array(self.points, dtype=np.int64),
                "self": dur - children, "dur": dur}

    def layer_totals(self):
        """Per span name: calls, points, total (inclusive) and self seconds."""
        table = self.span_table()
        out = {}
        for code, name in enumerate(self.names):
            mask = table["name"] == code
            out[name] = {"calls": int(mask.sum()),
                         "points": int(table["points"][mask].sum()),
                         "total_s": float(table["dur"][mask].sum()),
                         "self_s": float(table["self"][mask].sum())}
        return out

    def reconcile(self):
        """Root spans' duration against the sum of every span's self time."""
        table = self.span_table()
        return {"root_s": float(table["dur"][table["parent"] < 0].sum()),
                "self_sum_s": float(table["self"].sum()),
                "min_self_s": float(table["self"].min(initial=0.0))}

    def save(self, path):
        table = self.span_table()
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: v for k, v in table.items()
                               if k not in ("self", "dur")})


def _distinct_points(frames):
    """Distinct (chart, u, v, z) points among the recorded frame calls."""
    sets = {}
    for chart, u, v, z in frames:
        pts = np.column_stack(np.broadcast_arrays(
            *(np.asarray(c, dtype=float).ravel() for c in (u, v, z))))
        key = hashlib.blake2b(pts.tobytes(), digest_size=16).digest()
        sets.setdefault(chart, {})[key] = pts  # repeated grids kept once
    return sum(np.unique(np.concatenate(list(per.values())), axis=0).shape[0]
               for per in sets.values())

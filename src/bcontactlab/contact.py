"""Singular contact forms α = f dz/z + β on an atlas and their Reeb data.

A :class:`BContactForm` is one component of Z and carries its ``atlas``.

Everything is expressed in the frame {du, dv, dz/z} dual to {∂u, ∂v, z∂z}.
Writing A = β_u, B = β_v and C = f + z β_z for the frame coefficients of α,
exterior differentiation gives

    dα = P du∧dv + Q du∧(dz/z) + S dv∧(dz/z),
    P = ∂u B − ∂v A,   Q = ∂u C − z ∂z A,   S = ∂v C − z ∂z B,

and the volume coefficient of α∧dα in du∧dv∧(dz/z) is

    V = A·S − B·Q + C·P.

The Reeb field R = Y_u ∂u + Y_v ∂v + g z∂z solves the 4×3 system

    [A  B  C ] (Y_u)   (1)
    [0 −P −Q ] (Y_v) = (0)
    [P  0 −S ] ( g )   (0)
    [Q  S  0 ]

(α(R) = 1 plus ι_R dα contracted with each frame vector).  In three
dimensions it has the closed form R = ⋆dα/(α∧dα): ker dα is spanned by
(S, −Q, P), on which α takes the value V, so

    (Y_u, Y_v, g) = (S, −Q, P)/V,

and the normal matrix N = MᵀM has det N = V²(P² + Q² + S²) (Cauchy–Binet),
so det N vanishes exactly where the contact condition fails.

One rule judges the solve for the orbit right-hand side, the linearization
and the validation sweep alike (:func:`_solve_reeb_system`): det N clears a
floor, then |V| clears a floor relative to |A·S| + |B·Q| + |C·P|, the terms
that cancel in V.  The residual rows of M x = e₁ only measure rounding.

On the surface Z = {z = 0} the form induces the area form ω = f dβ + β∧df
with coefficient w = f(∂uB − ∂vA) + A f_v − B f_u, and H = −f|_Z generates
the restricted Reeb dynamics: ι_{R|_Z} ω = df|_Z.  The frame at z = 0 holds
all of it: C = f, Q = f_u, S = f_v and V = w, so :class:`ZSymplecticData`
reads H, ∇H and w from ``frame_values`` and Hess H from the partials of Q
and S.

Validation is one sweep (:func:`solve_reeb`) evaluating each grid point's
frame once; a Reeb system that fails the rule somewhere on the grid, or a
frame that overflows or turns NaN, fails its checks there instead of
raising, and the pipeline exits 2.  A chart whose frame
reads no z gives the same arrays on every level of the z-ladder, so the
sweep evaluates it once, at the ladder's first level, and that slab stands
for every level (z = 0 included); the worst values and their locations are
the ones a level-by-level sweep finds, because a later equal value never
replaces an earlier extreme.  On the z = 0 level the contact volume V is w,
so the contact check also bounds |w| away from zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expressions import (
    Expr, Var, add, compile, differentiate, evaluate, free_vars, gradient, mul,
    sub,
)

__all__ = [
    "ChartFields", "BContactForm", "BReebField", "ZSymplecticData",
    "ValidationReport", "RankDeficiencyError",
    "contact_check", "contact_sweep", "solve_reeb", "exceptional_hamiltonian",
    "verify_hamiltonian_identity", "reeb_residual_report", "check_grid",
    "CONTACT_THRESHOLD", "RESIDUAL_TOL",
]

CONTACT_THRESHOLD = 1e-8
RESIDUAL_TOL = 1e-9       # default threshold of the validation residuals
_DET_FLOOR = 1e-12
# fl(V) = fl(A·S − B·Q + C·P) errs by about 3ε·T, T = |A·S| + |B·Q| + |C·P|,
# so |V| ≥ c·T bounds the relative error of V, and of x = (S, −Q, P)/V, by
# about 3ε/c: c = 1e-7 gives 7e-9, the accuracy the Reeb solve is held to.
_V_FLOOR = 1e-7


class RankDeficiencyError(RuntimeError):
    """The Reeb system could not be solved to tolerance at some point."""


@dataclass(frozen=True)
class ChartFields:
    """Component expressions of one chart: α = f dz/z + β_u du + β_v dv + β_z dz."""

    f: Expr
    beta_u: Expr
    beta_v: Expr
    beta_z: Expr
    _trees: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def trees(self, chart):
        """The :class:`ChartTrees` over ``chart``'s variables, derived once."""
        names = chart.variables
        trees = self._trees.get(names)
        if trees is None:
            trees = self._trees[names] = ChartTrees(self, names)
        return trees


class ChartTrees:
    """Frame coefficients of one chart as trees over its (u, v, z) names.

    ``frame`` holds A, B, C and P, Q, S (see the module docstring),
    ``frame_function(u, v, z)`` is their one compiled evaluation, and
    ``reads_z`` says whether any of the six (simplified) trees names z; the
    partials that the linearization and the Hessian of H need are derived on
    first use, once per chart.
    """

    def __init__(self, cf, names):
        u, v, z = names
        A, B = cf.beta_u, cf.beta_v
        C = add(cf.f, mul(Var(z), cf.beta_z))
        self.names = names
        self.frame = (
            A, B, C,
            sub(differentiate(B, u), differentiate(A, v)),
            sub(differentiate(C, u), mul(Var(z), differentiate(A, z))),
            sub(differentiate(C, v), mul(Var(z), differentiate(B, z))),
        )
        self.frame_function = compile(self.frame, names)
        self.reads_z = any(z in free_vars(t) for t in self.frame)

    @cached_property
    def frame_partials(self):
        """∂(A, B, C, P, Q, S)/∂(u, v, z): six rows of three trees."""
        return tuple(gradient(t, self.names) for t in self.frame)


class BContactForm:
    """A singular contact form: its ``atlas``, and ``fields`` by chart name."""

    def __init__(self, atlas, fields):
        if set(fields) != set(atlas.charts):
            raise ValueError(f"fields {sorted(fields)} must name the charts "
                             f"{sorted(atlas.charts)} of the form's atlas")
        self.atlas = atlas
        self.fields = dict(fields)


@dataclass
class ValidationReport:
    check: str
    passed: bool
    threshold: float
    worst_value: float
    worst_location: dict
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# frame coefficients

def frame_values(cf, chart, u, v, z):
    """(A, B, C, P, Q, S, V) values at a point or an array of points."""
    A, B, C, P, Q, S = cf.trees(chart).frame_function(u, v, z)
    V = A * S - B * Q + C * P
    return A, B, C, P, Q, S, V


# ---------------------------------------------------------------------------
# the closed-form Reeb solve, generic over floats / arrays

def _solve_reeb_system(A, B, C, P, Q, S, V):
    """The Reeb solve x = (S, −Q, P)/V and the one rule that judges it:
    |det N| ≥ ``_DET_FLOOR`` (the contact condition) first, then
    |V|/(|A·S| + |B·Q| + |C·P|) ≥ ``_V_FLOOR`` (no cancellation in V),
    each tested as ``not (m >= floor)`` so that a NaN fails it.

    Returns (x, None, None) with x = (Y_u, Y_v, g) where every lane clears
    both floors, else (None, measure, cause): ``cause`` names the floor
    that failed, ``measure`` its per-lane values, smallest where furthest
    below.  Works for float and array entries alike.
    """
    det = abs(V * V * (P * P + Q * Q + S * S))
    m = det if isinstance(det, float) else float(np.min(det))  # NaN-preserving
    if not (m >= _DET_FLOOR):
        return None, det, f"|det N| min {m:.3e} < {_DET_FLOOR:g}"
    ratio = abs(V) / (abs(A * S) + abs(B * Q) + abs(C * P))
    m = ratio if isinstance(ratio, float) else float(np.min(ratio))
    if not (m >= _V_FLOOR):
        return None, ratio, (f"|V|/(|A·S| + |B·Q| + |C·P|) min {m:.3e} "
                             f"< {_V_FLOOR:g}")
    return (S / V, -Q / V, P / V), None, None


_RESIDUAL_NAMES = ("alpha(R)-1", "i_R dalpha @du", "i_R dalpha @dv",
                   "i_R dalpha @dz/z")


def _residual_rows(A, B, C, P, Q, S, x1, x2, x3):
    """The four rows of M x − e₁, named by ``_RESIDUAL_NAMES``."""
    return (A * x1 + B * x2 + C * x3 - 1.0, -P * x2 - Q * x3,
            P * x1 - S * x3, Q * x1 + S * x2)


class BReebField:
    """Pointwise-solved Reeb field R = Y_u ∂u + Y_v ∂v + g z∂z."""

    def __init__(self, form):
        self.form = form

    def _solve(self, u, v, z, chart_name):
        """(x, frame, cf, chart) at (u, v, z); raises where the solve fails."""
        chart = self.form.atlas.charts[chart_name]
        cf = self.form.fields[chart_name]
        frame = frame_values(cf, chart, u, v, z)
        x, _, cause = _solve_reeb_system(*frame)
        if cause is not None:
            raise RankDeficiencyError(
                f"Reeb system rank-deficient on chart {chart_name!r} ({cause})")
        return x, frame, cf, chart

    def components(self, u, v, z, *, chart_name):
        """(Y_u, Y_v, g) at one point (floats) or arrays of points."""
        return self._solve(u, v, z, chart_name)[0]

    def linearization_at(self, u, v, *, chart_name):
        """DR(p) of the ordinary field (Y_u, Y_v, g·z) at a point of Z.

        Differentiating the closed form x = (S, −Q, P)/V gives

            ∂_i x = (∂_i(S, −Q, P) − x ∂_iV)/V,
            ∂_iV = ∂_iA S + A ∂_iS − ∂_iB Q − B ∂_iQ + ∂_iC P + C ∂_iP,

        with the first partials of the frame coefficients.  The bottom row
        is exactly (0, 0, g(p)) because z = 0 kills the in-surface
        derivatives of g·z.
        """
        (x1, x2, x3), (A, B, C, P, Q, S, V), cf, chart = self._solve(
            u, v, 0.0, chart_name)
        env = {chart.u_name: u, chart.v_name: v, chart.z_name: 0.0}
        dA, dB, dC, dP, dQ, dS = (
            np.array([evaluate(t, env) for t in row])
            for row in cf.trees(chart).frame_partials)
        dV = dA * S + A * dS - dB * Q - B * dQ + dC * P + C * dP
        return np.array([(dS - x1 * dV) / V, (-dQ - x2 * dV) / V,
                         [0.0, 0.0, x3]])


# ---------------------------------------------------------------------------
# validation grids

def z_ladder(epsilon, nz):
    """0 plus ±ε·2^{−k} geometric levels, nz values in total (nz odd): the
    contact condition is uniform in dz/z, so this probes it at all scales."""
    half = (nz - 1) // 2
    pos = [epsilon * 0.5 ** k for k in range(half)]
    return tuple(pos + [0.0] + [-p for p in pos])


def check_grid(grid):
    """Raise ``ValueError`` unless ``grid`` is (nu, nv) on Z or (nu, nv, nz),
    with nu, nv ≥ 2 and nz odd and positive."""
    if (len(grid) not in (2, 3) or min(grid[:2]) < 2
            or len(grid) == 3 and (grid[2] < 1 or grid[2] % 2 == 0)):
        raise ValueError(f"grid must be nu,nv or nu,nv,nz with nu, nv >= 2 "
                         f"and nz odd and positive, got {list(grid)}")


def _slabs(form, grid, *audited):
    """(chart, cf, U, V, z, Z, levels) for each chart of ``form.atlas`` and
    each z-level of a grid (nu, nv, nz), or z = 0 alone for a surface grid
    (nu, nv); (U, V) are the chart's flattened samples and ``Z`` is z
    broadcast over them.

    A chart whose frame trees read no z, in ``form`` and in each
    ``audited`` form, yields one slab at the ladder's first level, standing
    for all of them: ``levels`` holds the levels a slab stands for, (z,)
    for a chart whose frame reads z."""
    check_grid(grid)
    levels = (0.0,)
    if len(grid) == 3:
        levels = z_ladder(form.atlas.epsilon, grid[2])
    for chart in form.atlas.charts.values():
        if chart.disk_radius > 0.0:
            U, V = np.array(chart.disk_points()).T
        else:
            U, V = np.meshgrid(*chart.grid(*grid[:2]), indexing="ij")
            U, V = U.ravel(), V.ravel()
        cf = form.fields[chart.name]
        reads_z = any(f.fields[chart.name].trees(chart).reads_z
                      for f in (form, *audited))
        for zs in ([(z,) for z in levels] if reads_z else [levels]):
            yield chart, cf, U, V, zs[0], np.full_like(U, zs[0]), zs


class _Worst:
    """The extreme of a per-point measure over the slabs, and where it is.

    A non-finite ``value`` ranks as the failing extreme in ``rank``, which
    thresholds are compared with.  The fold starts at ±inf, so the first
    slab names a location even when every value is 0 (an exact residual)."""

    def __init__(self, smallest=False):
        self.smallest = smallest
        self.value = self.rank = math.inf if smallest else -math.inf
        self.location = {}

    def update(self, values, chart, U, V, **where):
        """Fold in one slab's values."""
        values = np.broadcast_to(np.asarray(values, dtype=float), U.shape)
        bad = ~np.isfinite(values)  # the first non-finite lane, if any
        k = int(np.argmax(bad) if bad.any() else np.argmin(values)
                if self.smallest else np.argmax(values))
        m = float(values[k])
        r = m if math.isfinite(m) else -math.inf if self.smallest else math.inf
        if (r < self.rank) if self.smallest else (r > self.rank):
            self.value, self.rank = m, r
            self.location = {"chart": chart.name, "u": float(U[k]),
                             "v": float(V[k]), **where}


def _contact_report(per_chart, threshold, grid):
    """The contact report from one ``_Worst`` of |V| per chart; on a tie the
    first chart's minimum is the overall one, as one fold over all slabs."""
    volume = min(per_chart.values(), key=lambda w: w.rank)
    per_chart = {c: w.value for c, w in per_chart.items()}
    return ValidationReport(
        "contact_check", volume.rank >= threshold, threshold, volume.value,
        volume.location, {"min_abs_volume_per_chart": per_chart,
                          "grid": list(grid)})


def _residual_report(check, worst, threshold, grid, degenerate=None):
    """Passes below ``threshold``; a degenerate Reeb system (``degenerate``
    holds a location) has no finite residual and fails at that location."""
    if degenerate is not None and degenerate.location:
        return ValidationReport(check, False, threshold, math.inf,
                                degenerate.location, {"grid": list(grid)})
    return ValidationReport(check, worst.rank < threshold, threshold,
                            worst.value, worst.location, {"grid": list(grid)})


_quiet = np.errstate(over="ignore", invalid="ignore")  # checks report these


@_quiet
def contact_sweep(form, grid=(64, 64, 9)):
    """:func:`contact_check`'s report, and f on Z from the same sweep:
    ``{chart name: (U, V, f)}``, the chart's samples and C = f from the
    slab that stands for z = 0."""
    per_chart, f_on_Z = {}, {}
    for chart, cf, U, V, z, Z, levels in _slabs(form, grid):
        _, _, C, *_, vol = frame_values(cf, chart, U, V, Z)
        per_chart.setdefault(chart.name, _Worst(smallest=True)).update(
            np.abs(vol), chart, U, V, z=z)
        if 0.0 in levels:
            f_on_Z[chart.name] = U, V, C
    return _contact_report(per_chart, CONTACT_THRESHOLD, grid), f_on_Z


def contact_check(form, grid=(64, 64, 9)):
    """Validate α∧dα ≠ 0: min |V| over the validation grid of every chart,
    each chart's frame evaluated once per slab of :func:`_slabs` (once in
    all for a chart whose frame reads no z)."""
    return contact_sweep(form, grid)[0]


@_quiet
def solve_reeb(form, grid=(64, 64, 9)):
    """The validation sweep: ``(reeb, [contact, residuals, identity])``.

    Each slab's frame is evaluated once: one slab per (chart, z-level), or
    one per chart for a chart whose frame reads no z (see :func:`_slabs`).
    The contact volume, the Reeb solve with its residual rows and, on the
    slab standing for z = 0, the identity ι_{R|Z} ω = d(f|Z) all come from
    those arrays.  Where the rule of :func:`_solve_reeb_system` fails,
    nothing is raised: ``reeb`` is None and the residual check (and the
    identity check, for the slab standing for z = 0) fails at the lane
    where the floor that fired is furthest below it, naming the cause.
    Both residual checks pass below ``RESIDUAL_TOL``.
    """
    per_chart, residual, identity = {}, _Worst(), _Worst()
    degenerate, degenerate_on_Z = _Worst(smallest=True), _Worst(smallest=True)
    for chart, cf, U, V, z, Z, levels in _slabs(form, grid):
        on_Z = 0.0 in levels
        A, B, C, P, Q, S, vol = frame_values(cf, chart, U, V, Z)
        per_chart.setdefault(chart.name, _Worst(smallest=True)).update(
            np.abs(vol), chart, U, V, z=z)
        x, measure, cause = _solve_reeb_system(A, B, C, P, Q, S, vol)
        if cause is not None:
            degenerate.update(measure, chart, U, V, z=z, cause=cause)
            if on_Z:
                degenerate_on_Z.update(measure, chart, U, V, cause=cause)
            continue
        rows = _residual_rows(A, B, C, P, Q, S, *x)
        for name, row in zip(_RESIDUAL_NAMES, rows):
            residual.update(np.abs(row), chart, U, V, z=z, component=name)
        if on_Z:  # ι_{R|Z}(w du∧dv) − d(f|Z), in du and dv
            w = _area_coefficient(C, A, B, P, Q, S)  # (C, Q, S) = (f, f_u, f_v)
            for name, row in (("du", -w * x[1] - Q), ("dv", w * x[0] - S)):
                identity.update(np.abs(row), chart, U, V, component=name)
    return None if degenerate.location else BReebField(form), [
        _contact_report(per_chart, CONTACT_THRESHOLD, grid),
        _residual_report("reeb_residuals", residual, RESIDUAL_TOL, grid,
                         degenerate),
        _residual_report("hamiltonian_identity", identity, RESIDUAL_TOL,
                         grid[:2], degenerate_on_Z),
    ]


@_quiet
def reeb_residual_report(form, reeb=None, grid=(64, 64, 9)):
    """Max |α(R) − 1| and max |ι_R dα| component over the validation grid.

    The residuals measure how well ``reeb`` satisfies the defining equations
    of ``form``; by default the field is the one solved from ``form`` itself,
    but any :class:`BReebField` can be audited against the form.
    """
    reeb = reeb or BReebField(form)
    residual = _Worst()
    for chart, cf, U, V, z, Z, _ in _slabs(form, grid, reeb.form):
        frame = frame_values(cf, chart, U, V, Z)[:6]
        x = reeb.components(U, V, Z, chart_name=chart.name)
        for name, row in zip(_RESIDUAL_NAMES, _residual_rows(*frame, *x)):
            residual.update(np.abs(row), chart, U, V, z=z, component=name)
    return _residual_report("reeb_residuals", residual, RESIDUAL_TOL, grid)


# ---------------------------------------------------------------------------
# restriction to Z

class ZSymplecticData:
    """H = −f|_Z and the du∧dv coefficient w of ω = (f dβ + β∧df)|_Z, read
    from the frame at z = 0, where C = f, Q = f_u and S = f_v."""

    def __init__(self, form):
        self.form = form

    def _cf(self, chart_name):
        return self.form.fields[chart_name], self.form.atlas.charts[chart_name]

    def _frame_on_Z(self, u, v, chart_name):
        """(A, B, C, P, Q, S) at z = 0."""
        return frame_values(*self._cf(chart_name), u, v, 0.0)[:6]

    def H_value(self, u, v, chart_name):
        return -self._frame_on_Z(u, v, chart_name)[2]

    def H_gradient(self, u, v, chart_name):
        """(∂H/∂u, ∂H/∂v) at a point or on arrays."""
        *_, Q, S = self._frame_on_Z(u, v, chart_name)
        return -Q, -S

    def H_hessian(self, u, v, chart_name):
        """((H_uu, H_uv), (H_uv, H_vv)) from ∂(Q, S) at z = 0, exactly
        symmetric: the mixed partial is ∂Q/∂v, evaluated once."""
        cf, chart = self._cf(chart_name)
        dQ, dS = cf.trees(chart).frame_partials[4:]
        env = {chart.u_name: u, chart.v_name: v, chart.z_name: 0.0}
        h11, h12, h22 = (-evaluate(t, env) for t in (dQ[0], dQ[1], dS[1]))
        return (h11, h12), (h12, h22)

    def w_value(self, u, v, chart_name):
        """w = f P + A f_v − B f_u on Z, with P = ∂uB − ∂vA."""
        A, B, C, P, Q, S = self._frame_on_Z(u, v, chart_name)
        return _area_coefficient(C, A, B, P, Q, S)


def _area_coefficient(f, A, B, P, f_u, f_v):
    return f * P + A * f_v - B * f_u


exceptional_hamiltonian = ZSymplecticData  # H = −f|_Z, the generator on Z


def verify_hamiltonian_identity(form, grid=(64, 64)):
    """Check ι_{R|_Z} ω = d(f|_Z) componentwise over the Z grid: the
    identity check of :func:`solve_reeb` on the surface grid alone."""
    return solve_reeb(form, grid)[1][2]

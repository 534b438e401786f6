"""Critical points of the surface Hamiltonian and the escape-orbit bounds.

The pipeline is: coarse grid scan for local minima of |∇H|² (every sample
compared with its eight neighbours by whole-array comparisons; a disk chart
is sampled on its bounding square with +inf outside the disk), Newton
refinement on ∇H = 0, cross-chart deduplication in canonical coordinates,
then per-point classification.  A sample on the edge of a chart's sampled
domain, one with a neighbour outside it, is never a Newton start: past the
edge the +inf padding makes a |∇H|² that falls toward the edge look like a
minimum, and the charts of an atlas overlap, so another chart holds every
edge sample well inside its domain and scans that point in its interior.
At a nondegenerate critical point p the linearized Reeb field DR(p) has
spectrum {λ₊, λ₋, λ_z} with

    λ± = ±√(−det Hess H(p))   (Hessian in Darboux-normalized coordinates,
                               i.e. the chart Hessian divided by w(p)²),
    λ_z = g(p) = 1/f(p),

so the sign of det Hess H(p) decides between a hyperbolic point with a
two-dimensional transverse invariant manifold (saddles of H) and a
non-hyperbolic point whose transverse manifold is the one-dimensional
z-axis (extrema of H).  A single index-1 point forces infinitely many
escape orbits; otherwise the weighted expectation is 4 per component.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .contact import ZSymplecticData

__all__ = [
    "CriticalPoint", "StabilityReport", "CensusBound",
    "NotMorseError", "RegularValueViolation", "MorseInequalityViolation",
    "SpectrumMismatchError", "find_critical_points", "stability_at",
    "census_bound", "BETTI",
]

BETTI = {"torus": (1, 2, 1), "sphere": (1, 0, 1)}
EULER = {kind: b0 - b1 + b2 for kind, (b0, b1, b2) in BETTI.items()}

COARSE_GRID = (128, 128)  # scan samples of a box chart
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
DEDUP_DISTANCE = 1e-6
MORSE_DET_FLOOR = 1e-10
REGULAR_VALUE_FLOOR = 1e-8
SPECTRUM_TOL = 1e-6      # DR(p) spectrum against its closed forms, relative


class NotMorseError(RuntimeError):
    """A converged critical point has a (near-)degenerate Hessian."""


class RegularValueViolation(RuntimeError):
    """f vanishes at a critical point of f|_Z, so 0 is not a regular value."""


class MorseInequalityViolation(RuntimeError):
    """C_k < b_k for some k: the scan missed a critical point."""


class SpectrumMismatchError(RuntimeError):
    """Numerical DR(p) spectrum deviates from the closed forms."""


@dataclass(frozen=True)
class CriticalPoint:
    chart: str
    u: float
    v: float
    H: float
    hess: tuple  # ((H_uu, H_uv), (H_uv, H_vv)) in chart coordinates
    index: int
    f: float
    grad_norm: float


@dataclass
class StabilityReport:
    point: CriticalPoint = field(metadata={"report": False})
    lambda_plus: complex
    lambda_minus: complex
    lambda_z: float
    kind: str  # hyperbolic-2d-transverse | nonhyperbolic-1d-transverse
    transverse: str  # stable | unstable
    det_hess_darboux: float
    w_at_p: float
    dr_matrix: np.ndarray = field(metadata={"report": False})
    eigenvalues: np.ndarray = field(metadata={"report": False})
    eigenvectors: np.ndarray = field(metadata={"report": False})
    max_rel_mismatch: float


@dataclass
class CensusBound:
    n_components: int
    per_component: list
    counts: tuple  # total (C0, C1, C2)
    verdict: str  # "at-least-2N" | "infinite"
    lower_bound: int  # 2N
    expected_weighted: int | None  # 4N when saddle-free, else None


# ---------------------------------------------------------------------------
# scanning

def _grad_sq_grid(zdata, chart, U, V):
    """|∇H|² on flattened sample arrays from the two gradient trees."""
    gu, gv = (np.broadcast_to(np.asarray(g, dtype=float), U.shape)
              for g in zdata.H_gradient(U, V, chart.name))
    return gu * gu + gv * gv


def _neighbours(A, u_periodic, v_periodic, fill):
    """The nine copies of A shifted by −1, 0, 1 cells along each axis, the
    fifth being A itself: a periodic axis wraps, the other is padded with
    ``fill``."""
    padded = A
    for axis, periodic in enumerate((u_periodic, v_periodic)):
        width = [(0, 0), (0, 0)]
        width[axis] = (1, 1)
        padded = (np.pad(padded, width, mode="wrap") if periodic
                  else np.pad(padded, width, constant_values=fill))
    nu, nv = A.shape
    return [padded[di:di + nu, dj:dj + nv] for di in range(3) for dj in range(3)]


def _local_minima_box(G, u_periodic, v_periodic):
    """Row-major (i, j) of the cells of G that no neighbour undercuts.

    Each cell is compared with its eight neighbours, one shifted copy of the
    padded array at a time: a periodic axis wraps, the other is padded with
    +inf.  Only a strictly smaller neighbour disqualifies, so plateau cells
    and NaN cells are kept.
    """
    undercut = np.zeros(G.shape, dtype=bool)
    for shifted in _neighbours(G, u_periodic, v_periodic, np.inf):
        undercut |= shifted < G  # the unshifted copy is G: never smaller
    return np.argwhere(~undercut)


def _edge_cells(inside, u_periodic, v_periodic):
    """The cells of ``inside`` with a neighbour outside the sampled domain:
    past a non-periodic edge of the grid, or outside a disk."""
    held = np.logical_and.reduce(_neighbours(inside, u_periodic, v_periodic,
                                             False))
    return inside & ~held


def _scan_grid(chart):
    """A chart's scan axes and the mask of their samples inside its domain:
    ``COARSE_GRID`` on a box chart, 33 × 33 on a disk's bounding square."""
    if chart.disk_radius > 0.0:
        axis = np.linspace(-chart.disk_radius, chart.disk_radius, 33)
        inside = np.add.outer(axis ** 2, axis ** 2) <= chart.disk_radius ** 2
        return axis, axis, inside
    axis_u, axis_v = chart.grid(*COARSE_GRID)
    return axis_u, axis_v, np.full((axis_u.size, axis_v.size), True)


def _newton_refine(zdata, chart, u0, v0, tol):
    """Newton on ∇H = 0: (u, v, H, ∇H, Hess H) at the converged point, or None."""
    u, v = float(u0), float(v0)
    for _ in range(NEWTON_MAX_ITER):
        grad = zdata.H_gradient(u, v, chart.name)
        hess = zdata.H_hessian(u, v, chart.name)
        gu, gv = grad
        if math.hypot(gu, gv) < tol:
            return u, v, zdata.H_value(u, v, chart.name), grad, hess
        h11, h12 = hess[0]
        _, h22 = hess[1]
        det = h11 * h22 - h12 * h12
        if abs(det) < 1e-14:
            return None
        du = (h22 * gu - h12 * gv) / det
        dv = (h11 * gv - h12 * gu) / det
        if not (math.isfinite(du) and math.isfinite(dv)):
            return None
        u -= du
        v -= dv
        if max(abs(du), abs(dv)) > 2.0:  # runaway step, candidate is junk
            return None
    return None


def find_critical_points(zdata, warnings=None):
    """All nondegenerate critical points of H on Z, deduplicated across charts.

    Newton starts at the scan minima off each chart's edge (another chart
    holds the edge).  ``NEWTON_TOL`` bounds |∇H| at a refined point;
    ``warnings`` (a list, when given) collects dropped candidates and
    locally-constant charts.  Degenerate Hessians at converged points raise
    :class:`NotMorseError`; |f(p)| ≈ 0 raises :class:`RegularValueViolation`.
    """
    if warnings is None:
        warnings = []
    tub = zdata.form.atlas
    points = []
    for chart in tub.charts.values():
        axis_u, axis_v, inside = _scan_grid(chart)
        UU, VV = np.meshgrid(axis_u, axis_v, indexing="ij")
        G = np.full(inside.shape, np.inf)
        G[inside] = _grad_sq_grid(zdata, chart, UU[inside], VV[inside])
        if float(np.max(G[inside])) < NEWTON_TOL ** 2:
            warnings.append({"kind": "locally-constant",
                             "chart": chart.name,
                             "detail": "|grad H| below tolerance everywhere"})
            continue
        start = inside & ~_edge_cells(inside, chart.u_periodic, chart.v_periodic)
        for i, j in _local_minima_box(G, chart.u_periodic, chart.v_periodic):
            if not start[i, j]:
                continue
            got = _newton_refine(zdata, chart, axis_u[i], axis_v[j], NEWTON_TOL)
            if got is None:
                warnings.append({"kind": "newton-dropped", "chart": chart.name,
                                 "u0": float(axis_u[i]), "v0": float(axis_v[j])})
                continue
            u, v, H, grad, hess = got
            u, v = chart.wrap(u, v)
            if not chart.contains(u, v, slack=1e-9):
                continue  # owned by a neighbouring chart
            for k, rec in enumerate(points):
                if tub.distance(chart.name, (u, v), rec.chart, (rec.u, rec.v)) < DEDUP_DISTANCE:
                    if math.hypot(*grad) < rec.grad_norm:
                        points[k] = _make_point(chart.name, u, v, H, grad, hess)
                    break
            else:
                points.append(_make_point(chart.name, u, v, H, grad, hess))
    for p in points:
        det = p.hess[0][0] * p.hess[1][1] - p.hess[0][1] ** 2
        if abs(det) < MORSE_DET_FLOOR:
            raise NotMorseError(
                f"degenerate Hessian (det {det:.3e}) at ({p.u:.6f}, {p.v:.6f}) "
                f"on chart {p.chart!r}")
        if abs(p.f) < REGULAR_VALUE_FLOOR:
            raise RegularValueViolation(
                f"f({p.u:.6f}, {p.v:.6f}) = {p.f:.3e} vanishes at a "
                f"critical point on chart {p.chart!r}")
    points.sort(key=lambda p: (p.H, p.u, p.v))
    return points


def _make_point(chart_name, u, v, H, grad, hess):
    h11, h12 = hess[0]
    _, h22 = hess[1]
    eigs = np.linalg.eigvalsh(np.array([[h11, h12], [h12, h22]]))
    index = int(np.sum(eigs < 0))
    return CriticalPoint(
        chart=chart_name, u=float(u), v=float(v), H=float(H),
        hess=((float(h11), float(h12)), (float(h12), float(h22))),
        index=index, f=float(-H),
        grad_norm=float(math.hypot(*grad)),
    )


# ---------------------------------------------------------------------------
# stability

def spectrum_mismatch(eigs, lam_plus, lam_z):
    """Worst relative gap between a 3×3 spectrum and its closed forms.

    The eigenvalue nearest λ_z is paired with λ_z; the other two, sorted by
    (real, imag), with ±λ_plus sorted the same way.
    """
    order = np.argsort([abs(e - lam_z) for e in eigs])
    ez = eigs[order[0]]
    rest = sorted(eigs[order[1:]], key=lambda e: (e.real, e.imag))
    targets = sorted([lam_plus, -lam_plus], key=lambda e: (e.real, e.imag))
    scale = max(abs(lam_z), abs(lam_plus), 1e-30)
    return max(abs(ez - lam_z) / max(abs(lam_z), 1e-30),
               *(abs(e - t) / scale for e, t in zip(rest, targets)))


def stability_at(p, reeb):
    """Classify DR(p): numerical spectrum cross-checked against closed forms."""
    w_p = ZSymplecticData(reeb.form).w_value(p.u, p.v, p.chart)
    det_chart = p.hess[0][0] * p.hess[1][1] - p.hess[0][1] ** 2
    det_dbx = det_chart / (w_p * w_p)
    lam_plus = cmath.sqrt(complex(-det_dbx, 0.0))
    lam_minus = -lam_plus
    lam_z = 1.0 / p.f

    dr = reeb.linearization_at(p.u, p.v, chart_name=p.chart)
    eigs, vecs = np.linalg.eig(dr)

    mism = spectrum_mismatch(eigs, lam_plus, lam_z)
    if mism > SPECTRUM_TOL:
        raise SpectrumMismatchError(
            f"DR(p) spectrum {sorted(eigs, key=abs)} deviates from closed forms "
            f"{[lam_plus, lam_minus, lam_z]} by {mism:.3e} (rel) at "
            f"({p.u:.6f}, {p.v:.6f}) on {p.chart!r}")

    kind = ("hyperbolic-2d-transverse" if det_dbx < 0
            else "nonhyperbolic-1d-transverse")
    return StabilityReport(
        point=p, lambda_plus=lam_plus, lambda_minus=lam_minus,
        lambda_z=float(lam_z), kind=kind,
        transverse="unstable" if lam_z > 0 else "stable",
        det_hess_darboux=float(det_dbx), w_at_p=float(w_p),
        dr_matrix=dr, eigenvalues=eigs, eigenvectors=vecs,
        max_rel_mismatch=float(mism),
    )


# ---------------------------------------------------------------------------
# census

def census_bound(points, components):
    """Theorem-predicted escape-orbit bound from the critical-point census.

    ``components``: the connected components of Z, one atlas
    (a ``charts.TubularChart``) each; a component's ``kind`` ("torus" or
    "sphere") picks its Betti numbers, and each critical point is assigned
    to the component whose ``charts`` hold its chart.
    """
    n = len(components)
    if n == 0:
        raise ValueError("at least one surface component is required")
    per = []
    total = [0, 0, 0]
    any_saddle = False
    for comp in components:
        kind = comp.kind
        betti = BETTI[kind]
        mine = [p for p in points if p.chart in comp.charts]
        counts = [sum(1 for p in mine if p.index == k) for k in range(3)]
        if len(mine) < 2:
            raise MorseInequalityViolation(
                f"component {kind!r} contributed {len(mine)} critical points; "
                f"a closed surface carries at least a max and a min")
        for k in range(3):
            if counts[k] < betti[k]:
                raise MorseInequalityViolation(
                    f"C_{k} = {counts[k]} < b_{k} = {betti[k]} on a {kind} "
                    f"component: the scan missed a critical point")
            total[k] += counts[k]
        euler = counts[0] - counts[1] + counts[2]
        per.append({
            "kind": kind,
            "betti": list(betti),
            "counts": counts,
            "euler": euler,
            "euler_expected": EULER[kind],
            "euler_ok": euler == EULER[kind],
        })
        if counts[1] > 0:
            any_saddle = True
    verdict = "infinite" if any_saddle else "at-least-2N"
    return CensusBound(
        n_components=n, per_component=per, counts=tuple(total),
        verdict=verdict, lower_bound=2 * n,
        expected_weighted=None if any_saddle else 4 * n,
    )

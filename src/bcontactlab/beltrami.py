"""Area-preserving eigenfields on the flat torus and their contact forms.

A divergence-free tangential field on a surface (T², h) is the symplectic
gradient of a stream function: with proportionality constant λ its
components are

    X_u = −(λ √det h)⁻¹ ∂F/∂v,     X_v = (λ √det h)⁻¹ ∂F/∂u,

i.e. X is the Hamiltonian field of F with respect to λ·(area form of h).
For a curl eigenfield the stream function is additionally an eigenfunction
of the Laplace–Beltrami operator of h.  This module checks both statements
on grids, linearizes the transverse dynamics at stagnation points, and
rebuilds a contact form α = g(X, ·) from the field data using the cylinder
metric g = h + dz²/z², whose exceptional Hamiltonian recovers F.

The stream function, eigenvalue and metric of a scenario file map onto
:class:`BeltramiData` and :class:`MetricOnZ` unchanged.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .charts import TubularChart
from . import contact
from .contact import BContactForm, ChartFields, contact_sweep
from .critical import (
    MORSE_DET_FLOOR, NotMorseError, RegularValueViolation, SpectrumMismatchError,
    spectrum_mismatch,
)
from .expressions import (
    Const, Expr, compile, differentiate, evaluate, hessian, parse, substitute,
)

__all__ = [
    "MetricDegeneracyError", "SignInconsistencyError", "MetricOnZ",
    "BeltramiData", "IdentityReport", "LaplaceReport",
    "BeltramiStabilityReport", "tangential_expressions",
    "hamiltonian_identity_check",
    "laplace_eigen_check", "beltrami_stability_matrix",
    "contact_from_beltrami",
]

_NAMES = ("u", "v")
EIGEN_RATIO_TOL = 1e-6
LEVEL_FLOOR = 0.1        # ratio test only where |F| exceeds this times max|F|
GRAD_TOL = 1e-8          # acceptance threshold for "p is a stagnation point"
ROUNDTRIP_TOL = 1e-10
SPECTRUM_TOL = 1e-10     # stagnation spectrum against its closed forms
METRIC_GRID = (64, 64)   # samples of the metric's positive-definiteness test


class MetricDegeneracyError(RuntimeError):
    """The surface metric fails positive definiteness on the grid."""


class SignInconsistencyError(RuntimeError):
    """The Hamiltonian identity needs different signs at different points."""


def _expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, str):
        return parse(x, _NAMES)
    return Const(float(x))


def _build(template, **parts):
    """Parse ``template`` over the placeholder names and splice in ``parts``."""
    tree = parse(template, tuple(parts))
    return substitute(tree, {k: _expr(v) for k, v in parts.items()})


_TORUS = TubularChart.torus().charts["torus"]  # the grid checks sample it


def _on_grid(x, shape):
    return np.broadcast_to(np.asarray(x, dtype=float), shape)


class MetricOnZ:
    """A positive-definite metric on the surface, entered as expressions."""

    def __init__(self, h_uu="1", h_uv="0", h_vv="1"):
        self.h_uu = _expr(h_uu)
        self.h_uv = _expr(h_uv)
        self.h_vv = _expr(h_vv)
        self.det_expr = _build("a*c - b^2", a=self.h_uu, b=self.h_uv,
                               c=self.h_vv)
        self.sqrt_det_expr = _build("sqrt(d)", d=self.det_expr)

    @classmethod
    def from_scenario(cls, data):
        metric = data.get("metric", {})
        return cls(metric.get("h_uu", "1"), metric.get("h_uv", "0"),
                   metric.get("h_vv", "1"))

    def validate(self):
        U, V = _TORUS.samples(*METRIC_GRID)
        env = {"u": U, "v": V}
        a, d = (_on_grid(evaluate(t, env), U.shape)
                for t in (self.h_uu, self.det_expr))
        for name, values in (("h_uu", a), ("det h", d)):
            k = int(np.argmin(values))
            if float(values[k]) <= 0.0:
                raise MetricDegeneracyError(
                    f"{name} = {float(values[k]):.6g} ≤ 0 at "
                    f"(u={float(U[k]):.6f}, v={float(V[k]):.6f})")
        return self


class BeltramiData:
    """Stream function, eigenvalue and metric, with derived field components."""

    def __init__(self, stream, metric=None, eigenvalue=1.0):
        if eigenvalue == 0.0:
            raise ValueError("the proportionality constant must be nonzero")
        self.stream = _expr(stream)
        self.metric = metric if metric is not None else MetricOnZ()
        self.eigenvalue = float(eigenvalue)
        self.metric.validate()
        self._stream_u = differentiate(self.stream, "u")
        self._stream_v = differentiate(self.stream, "v")

    @classmethod
    def from_scenario(cls, data):
        return cls(data["stream"], MetricOnZ.from_scenario(data),
                   data["eigenvalue"])


def tangential_expressions(data):
    """(X_u, X_v) = (−F_v, F_u) / (λ √det h) as expression trees."""
    m = data.metric
    x_u = _build("(0 - dv) / (lam * s)", dv=data._stream_v,
                 lam=data.eigenvalue, s=m.sqrt_det_expr)
    x_v = _build("du / (lam * s)", du=data._stream_u,
                 lam=data.eigenvalue, s=m.sqrt_det_expr)
    return x_u, x_v


# ---------------------------------------------------------------------------
# grid checks

@dataclass
class IdentityReport:
    passed: bool
    global_sign: float
    max_residual: float
    n_points: int
    worst_at: dict


def hamiltonian_identity_check(data, grid=None, components=None):
    """Compare ι_X(λ·dA_h) with dF on a grid, under one global sign.

    The sign is fixed by the first sample where both sides are nonzero and
    must then work everywhere: a point where only the *opposite* sign fits
    raises :class:`SignInconsistencyError`, since an orientation cannot flip
    midway across a connected surface.  ``components`` may supply a pair of
    evaluators to audit in place of the derived ones.  F_u, F_v and √det h
    come from one compiled evaluation, and the derived X from those values.
    It passes below :data:`contact.RESIDUAL_TOL`, the pipeline's threshold.
    ``grid`` defaults to ``contact.VALIDATION_GRID[:2]``.
    """
    threshold = contact.RESIDUAL_TOL
    grid = contact.VALIDATION_GRID[:2] if grid is None else grid
    U, V = _TORUS.samples(*grid)
    fu, fv, sqrt_det = compile((data._stream_u, data._stream_v,
                                data.metric.sqrt_det_expr), _NAMES)(U, V)
    scale = data.eigenvalue * sqrt_det
    if components is None:
        xu, xv = -fv / scale, fu / scale
    else:
        xu, xv = components[0](U, V), components[1](U, V)

    # ι_X(λ √det h du∧dv) = λ √det h (X_u dv − X_v du), matched against
    # dF = F_u du + F_v dv, component by component, point-major
    lhs = np.stack([_on_grid(-scale * xv, U.shape),
                    _on_grid(scale * xu, U.shape)], axis=1).ravel()
    rhs = np.stack([_on_grid(fu, U.shape),
                    _on_grid(fv, U.shape)], axis=1).ravel()

    floor = 1e-12 * max(1.0, float(np.max(np.abs(rhs))) if rhs.size else 1.0)
    nonzero = np.nonzero((np.abs(lhs) > floor) & (np.abs(rhs) > floor))[0]
    if nonzero.size == 0:
        sign = 1.0
    else:
        k = int(nonzero[0])
        sign = 1.0 if lhs[k] * rhs[k] > 0 else -1.0

    residual = np.abs(lhs - sign * rhs)
    flipped = np.abs(lhs + sign * rhs)
    bad = (residual > threshold) & (flipped <= threshold) & (np.abs(rhs) > threshold)
    if np.any(bad):
        k = int(np.nonzero(bad)[0][0])
        raise SignInconsistencyError(
            f"the sign fixed at the first sample fails at "
            f"(u={float(U[k // 2]):.6f}, v={float(V[k // 2]):.6f}) while its "
            f"opposite fits — the identity does not hold with one sign")

    k = int(np.argmax(residual)) if residual.size else 0
    worst = {"u": float(U[k // 2]), "v": float(V[k // 2]),
             "component": "du" if k % 2 == 0 else "dv"}
    top = float(residual[k]) if residual.size else 0.0
    return IdentityReport(passed=top < threshold, global_sign=sign,
                          max_residual=top, n_points=U.size, worst_at=worst)


@dataclass
class LaplaceReport:
    verdict: str            # eigenfunction | not-eigenfunction
    eigenvalue: float | None
    spread: float           # worst relative deviation of the pointwise ratio
    n_tested: int


def _laplacian(data):
    """Δ_h F = (√det h)⁻¹ div(√det h h⁻¹ ∇F) as one tree."""
    m = data.metric
    parts = dict(a=m.h_uu, b=m.h_uv, c=m.h_vv, d=m.det_expr,
                 s=m.sqrt_det_expr, fu=data._stream_u, fv=data._stream_v)
    flux_u = _build("s * (c/d*fu - b/d*fv)", **parts)
    flux_v = _build("s * (a/d*fv - b/d*fu)", **parts)
    return _build("(du + dv) / s", du=differentiate(flux_u, "u"),
                  dv=differentiate(flux_v, "v"), s=m.sqrt_det_expr)


def laplace_eigen_check(data, grid=None):
    """Estimate Δ_h F / F on a grid and test it for constancy.

    Δ_h is div∘grad, so eigenvalues on the torus come out negative.  The
    ratio is sampled away from the zero level of F (|F| above
    ``LEVEL_FLOOR`` times its grid maximum); it must be constant to
    ``EIGEN_RATIO_TOL`` for an eigenfunction verdict.  Δ_h F and F come
    from one compiled evaluation.  ``grid`` defaults to
    ``contact.VALIDATION_GRID[:2]``.
    """
    grid = contact.VALIDATION_GRID[:2] if grid is None else grid
    U, V = _TORUS.samples(*grid)
    laplacian, values = (_on_grid(x, U.shape) for x in compile(
        (_laplacian(data), data.stream), _NAMES)(U, V))
    top = float(np.max(np.abs(values)))
    if top == 0.0:
        raise ValueError("the stream function vanishes on the whole grid")
    mask = np.abs(values) > LEVEL_FLOOR * top
    ratios = laplacian[mask] / values[mask]
    center = float(np.median(ratios))
    spread = float(np.max(np.abs(ratios - center))) / max(1.0, abs(center))
    if spread < EIGEN_RATIO_TOL:
        return LaplaceReport(verdict="eigenfunction", eigenvalue=center,
                             spread=spread, n_tested=int(mask.sum()))
    return LaplaceReport(verdict="not-eigenfunction", eigenvalue=None,
                         spread=spread, n_tested=int(mask.sum()))


# ---------------------------------------------------------------------------
# stagnation points

@dataclass
class BeltramiStabilityReport:
    point: tuple
    stream_at_p: float
    det_hess: float
    rescale: float          # λ √det h at the point
    matrix: np.ndarray = field(metadata={"report": False})
    eigenvalues: np.ndarray = field(metadata={"report": False})
    lambda_plus: complex
    lambda_minus: complex
    lambda_z: float
    kind: str               # hyperbolic-2d-transverse | nonhyperbolic-1d-transverse
    transverse: str         # stable | unstable
    max_rel_mismatch: float


def beltrami_stability_matrix(data, point=(0.0, 0.0)):
    """Linearization of the full field at a stagnation point, with spectrum.

    The tangential block is (λ √det h)⁻¹ [[−F_uv, −F_vv], [F_uu, F_uv]] and
    the transverse rate is −F(p); eigenvalues are cross-checked against
    ±√(−det Hess F)/(λ √det h) and −F(p) to ``SPECTRUM_TOL``.  Requires a
    nondegenerate Hessian and F(p) ≠ 0 (zero must be a regular value of the
    stream function).
    """
    u, v = float(point[0]), float(point[1])
    env = {"u": u, "v": v}
    grad_norm = math.hypot(evaluate(data._stream_u, env),
                           evaluate(data._stream_v, env))
    if grad_norm > GRAD_TOL:
        raise ValueError(f"(u={u:.6f}, v={v:.6f}) is not a stagnation point: "
                         f"|grad F| = {grad_norm:.3e}")
    f_p = float(evaluate(data.stream, env))
    (fuu, fuv), (_, fvv) = [[evaluate(e, env) for e in row]
                            for row in hessian(data.stream, _NAMES)]
    det_hess = fuu * fvv - fuv * fuv
    if abs(det_hess) < MORSE_DET_FLOOR:
        raise NotMorseError(
            f"degenerate Hessian at (u={u:.6f}, v={v:.6f}): "
            f"det = {det_hess:.3e}")
    if abs(f_p) < GRAD_TOL:
        raise RegularValueViolation(
            f"the stream function vanishes at the stagnation point "
            f"(u={u:.6f}, v={v:.6f}); zero is not a regular value")

    rescale = data.eigenvalue * float(evaluate(data.metric.sqrt_det_expr,
                                               env))
    dx = np.zeros((3, 3))
    dx[:2, :2] = np.array([[-fuv, -fvv], [fuu, fuv]]) / rescale
    dx[2, 2] = -f_p
    eigs = np.linalg.eigvals(dx)

    lam_plus = cmath.sqrt(complex(-det_hess, 0.0)) / rescale
    lam_minus = -lam_plus
    lam_z = -f_p
    mismatch = spectrum_mismatch(eigs, lam_plus, lam_z)
    if mismatch > SPECTRUM_TOL:
        raise SpectrumMismatchError(
            f"assembled matrix disagrees with its closed-form spectrum "
            f"(relative {mismatch:.3e} at u={u:.6f}, v={v:.6f})")

    kind = ("hyperbolic-2d-transverse" if det_hess < 0
            else "nonhyperbolic-1d-transverse")
    return BeltramiStabilityReport(
        point=(u, v), stream_at_p=f_p, det_hess=det_hess, rescale=rescale,
        matrix=dx, eigenvalues=eigs, lambda_plus=lam_plus,
        lambda_minus=lam_minus, lambda_z=lam_z, kind=kind,
        transverse="stable" if lam_z < 0 else "unstable",
        max_rel_mismatch=mismatch)


# ---------------------------------------------------------------------------
# back to a contact form

def contact_from_beltrami(data, grid=None):
    """Build α = g(X, ·) from the field data and audit it.

    With g = h + dz²/z² and X = X_u ∂u + X_v ∂v + (z X_z) ∂z the one-form is
    β + X_z dz/z with β = h(X_tangential, ·), so its transverse coefficient
    restricts to X_z|_Z = −F; every component is taken independent of z.
    Returns the form together with a report: whether the exceptional
    Hamiltonian recovers the stream function, and whether the form passes
    the contact condition (it legitimately may not — that requires X to be
    nonvanishing — so failure is recorded, not raised).  ``grid`` defaults
    to ``contact.VALIDATION_GRID``.
    """
    m = data.metric
    x_u, x_v = tangential_expressions(data)
    x_z = _build("0 - F", F=data.stream)

    beta_u = _build("a*xu + b*xv", a=m.h_uu, b=m.h_uv, xu=x_u, xv=x_v)
    beta_v = _build("b*xu + c*xv", b=m.h_uv, c=m.h_vv, xu=x_u, xv=x_v)
    form = BContactForm(TubularChart.torus(), {
        "torus": ChartFields(x_z, beta_u, beta_v, Const(0.0))})

    # H = −f|_Z, with f read from the contact check's own frame on Z
    contact, f_on_Z = contact_sweep(form, grid=grid)
    U, V, f = f_on_Z["torus"]
    recovered = -f
    target = evaluate(data.stream, {"u": U, "v": V})
    gap = float(np.max(np.abs(_on_grid(recovered, U.shape)
                              - _on_grid(target, U.shape))))
    report = {
        "stream_recovered": gap < ROUNDTRIP_TOL,
        "roundtrip_max_error": gap,
        "contact_passed": contact.passed,
        "contact_worst_value": contact.worst_value,
        "contact_worst_location": contact.worst_location,
    }
    return form, report

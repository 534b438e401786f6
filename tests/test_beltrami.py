"""Stream-function identities and the reconstructed contact form.

Hand values used below, all on the flat torus unless a metric is given:

* F = cos u, λ = 1: X_u = 0, X_v = −sin u; both sides of the area-form
  identity are ±sin u du.
* F = cos u + cos v/2 (the bundled scenario): stagnation points at the four
  half-period combinations, stream values ±3/2 and ±1/2, Hessian
  determinants ±1/2, so the tangential rates are ±1/√2 (real at the two
  saddle-like points, imaginary at the centers).
* h = diag(2, 1), F = cos(u + 2v): Δ_h F = (1/2)F_uu + F_vv = −(9/2)F.
"""
import math

import numpy as np
import pytest

from bcontactlab import contact
from bcontactlab.beltrami import (
    BeltramiData, MetricDegeneracyError, MetricOnZ, SignInconsistencyError,
    beltrami_stability_matrix, contact_from_beltrami,
    hamiltonian_identity_check, laplace_eigen_check, tangential_expressions,
)
from bcontactlab.charts import TubularChart
from bcontactlab.contact import exceptional_hamiltonian
from bcontactlab.critical import NotMorseError, RegularValueViolation
from bcontactlab.expressions import differentiate, parse, substitute
from bcontactlab.scenarios import load_scenario
from tests_fd import eval_value

BUILTIN_STREAM = "cos(u) + cos(v)/2"


def _grid(n=40):
    u = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    U, V = np.meshgrid(u, u, indexing="ij")
    return U.ravel(), V.ravel()


# ---------------------------------------------------------------------------
# tangential components

def _field(data):
    """(X_u, X_v) as evaluators of the trees the contact form is built from."""
    return tuple(lambda u, v, tree=tree: eval_value(tree, ("u", "v"), (u, v))
                 for tree in tangential_expressions(data))


def test_components_match_hand_values():
    U, V = _grid()
    xu, xv = _field(BeltramiData("cos(u)"))
    assert np.max(np.abs(np.asarray(xu(U, V)))) == 0.0
    assert np.max(np.abs(xv(U, V) + np.sin(U))) < 1e-15

    xu2, xv2 = _field(BeltramiData("cos(v)", eigenvalue=2.0))
    assert np.max(np.abs(xu2(U, V) - np.sin(V) / 2)) < 1e-15
    assert np.max(np.abs(np.asarray(xv2(U, V)))) == 0.0


def test_constant_stream_gives_the_zero_field():
    xu, xv = _field(BeltramiData("3"))
    assert xu(0.4, 1.2) == 0.0 and xv(0.4, 1.2) == 0.0


def test_zero_eigenvalue_is_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        BeltramiData("cos(u)", eigenvalue=0.0)


def test_metric_must_be_positive_definite():
    with pytest.raises(MetricDegeneracyError):
        MetricOnZ(h_uu="-1").validate()
    with pytest.raises(MetricDegeneracyError, match="det"):
        MetricOnZ(h_uu="1", h_uv="1", h_vv="1").validate()


def test_stagnation_points_are_exactly_the_field_zeros():
    xu, xv = _field(BeltramiData(BUILTIN_STREAM))
    for p in ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi)):
        assert abs(xu(*p)) < 1e-12 and abs(xv(*p)) < 1e-12


def test_field_is_divergence_free_for_a_curved_metric():
    met = MetricOnZ(h_uu="2 + sin(v)")
    xu_ast, xv_ast = tangential_expressions(BeltramiData(BUILTIN_STREAM, met))
    weigh = parse("s*x", ("s", "x"))
    div = None
    for var, ast in (("u", xu_ast), ("v", xv_ast)):
        flux = substitute(weigh, {"s": met.sqrt_det_expr, "x": ast})
        term = differentiate(flux, var)
        div = term if div is None else substitute(
            parse("a + b", ("a", "b")), {"a": div, "b": term})
    U, V = _grid()
    residual = np.abs(eval_value(div, ("u", "v"), (U, V))
                      / eval_value(met.sqrt_det_expr, ("u", "v"), (U, V)))
    assert float(np.max(residual)) < 1e-8


# ---------------------------------------------------------------------------
# the area-form identity

def test_identity_holds_with_a_single_sign():
    rep = hamiltonian_identity_check(BeltramiData("cos(u)"))
    assert rep.passed
    assert rep.global_sign == -1.0
    assert rep.max_residual < 1e-12

    rep2 = hamiltonian_identity_check(BeltramiData("cos(u)*cos(v)"))
    assert rep2.passed and rep2.max_residual < 1e-10


def test_identity_threshold_defaults_to_the_pipeline_residual_tol(monkeypatch):
    """A residual of 5e-9 fails the default threshold, ``contact.RESIDUAL_TOL``
    = 1e-9, and passes once that constant is 1e-8: the default is read when
    the check runs."""
    data = BeltramiData("cos(u)")
    xu, xv = _field(data)
    off = lambda u, v: xv(u, v) + 5e-9
    rep = hamiltonian_identity_check(data, components=(xu, off))
    assert 1e-9 < rep.max_residual < 1e-8
    assert not rep.passed
    monkeypatch.setattr(contact, "RESIDUAL_TOL", 1e-8)
    assert hamiltonian_identity_check(data, components=(xu, off)).passed


def test_identity_fails_for_a_corrupted_component():
    data = BeltramiData("cos(u)")
    xu, xv = _field(data)
    bad = lambda u, v: xv(u, v) + 0.5
    rep = hamiltonian_identity_check(data, components=(xu, bad))
    assert not rep.passed
    assert rep.max_residual > 0.1


def test_identity_rejects_a_pointwise_sign_flip():
    xu, xv = _field(BeltramiData("cos(u)"))

    def flip(u, v):
        return np.where(np.asarray(u) > math.pi, -1.0, 1.0)

    pair = (lambda u, v: flip(u, v) * xu(u, v),
            lambda u, v: flip(u, v) * xv(u, v))
    with pytest.raises(SignInconsistencyError):
        hamiltonian_identity_check(BeltramiData("cos(u)"), components=pair)


# ---------------------------------------------------------------------------
# Laplace eigenfunctions

def test_single_modes_have_their_wave_number_eigenvalues():
    rep = laplace_eigen_check(BeltramiData("cos(u)"))
    assert rep.eigenvalue == pytest.approx(-1.0)
    rep = laplace_eigen_check(BeltramiData("cos(2*u)*cos(v)"))
    assert rep.verdict == "eigenfunction"
    assert rep.eigenvalue == pytest.approx(-5.0, abs=1e-12)


def test_every_low_mode_is_detected():
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m == 0 and n == 0:
                continue
            rep = laplace_eigen_check(BeltramiData(f"cos({m}*u + {n}*v)"))
            assert rep.verdict == "eigenfunction"
            assert abs(rep.eigenvalue + (m * m + n * n)) < 1e-8


def test_mixed_modes_are_not_an_eigenfunction():
    rep = laplace_eigen_check(BeltramiData("cos(u) + cos(2*u)"))
    assert rep.verdict == "not-eigenfunction"
    assert rep.eigenvalue is None


def test_anisotropic_metric_rescales_the_eigenvalue():
    rep = laplace_eigen_check(BeltramiData("cos(u + 2*v)", MetricOnZ(h_uu="2")))
    assert rep.verdict == "eigenfunction"
    assert rep.eigenvalue == pytest.approx(-4.5, abs=1e-12)


def test_builtin_scenario_stream_is_an_eigenfunction():
    data = BeltramiData.from_scenario(load_scenario("beltrami").data)
    assert data.eigenvalue == 1.0
    rep = laplace_eigen_check(data)
    assert rep.verdict == "eigenfunction"
    assert rep.eigenvalue == pytest.approx(-1.0, abs=1e-12)
    assert hamiltonian_identity_check(data).passed


# ---------------------------------------------------------------------------
# stability at stagnation points

def test_center_and_saddle_spectra_of_the_builtin_stream():
    half = 1.0 / math.sqrt(2.0)
    expected = {
        (0.0, 0.0): ("nonhyperbolic-1d-transverse", half * 1j, -1.5, "stable"),
        (0.0, math.pi): ("hyperbolic-2d-transverse", half, -0.5, "stable"),
        (math.pi, 0.0): ("hyperbolic-2d-transverse", half, 0.5, "unstable"),
        (math.pi, math.pi): ("nonhyperbolic-1d-transverse", half * 1j, 1.5,
                             "unstable"),
    }
    for p, (kind, lam_plus, lam_z, transverse) in expected.items():
        rep = beltrami_stability_matrix(BeltramiData(BUILTIN_STREAM), point=p)
        assert rep.kind == kind
        assert rep.lambda_plus == pytest.approx(lam_plus, abs=1e-14)
        assert rep.lambda_z == pytest.approx(lam_z, abs=1e-14)
        assert rep.transverse == transverse
        assert rep.max_rel_mismatch < 1e-10


def test_stability_matrix_entries_are_the_hessian_block():
    rep = beltrami_stability_matrix(BeltramiData(BUILTIN_STREAM),
                                    point=(0.0, math.pi))
    # F_uu = -1, F_uv = 0, F_vv = 1/2 there, and the rescaling is 1
    assert np.allclose(rep.matrix,
                       [[0.0, -0.5, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -0.5]],
                       atol=1e-15)


def test_degenerate_hessian_is_refused():
    with pytest.raises(NotMorseError):
        beltrami_stability_matrix(BeltramiData("cos(u)"), point=(0.0, 1.3))


def test_zero_stream_value_is_refused():
    # (pi/2, pi/2) is a genuine saddle of cos u cos v but sits on the zero
    # level, where the transverse rate would vanish
    with pytest.raises(RegularValueViolation):
        beltrami_stability_matrix(BeltramiData("cos(u)*cos(v)"),
                                  point=(math.pi / 2, math.pi / 2))


def test_non_stagnation_point_is_refused():
    with pytest.raises(ValueError, match="stagnation"):
        beltrami_stability_matrix(BeltramiData("cos(u)*cos(v)"),
                                  point=(math.pi / 2, 0.0))


# ---------------------------------------------------------------------------
# reconstructed contact form

def test_roundtrip_recovers_the_stream_function():
    for stream in (BUILTIN_STREAM, "cos(u)*cos(v)"):
        form, rep = contact_from_beltrami(BeltramiData(stream))
        assert rep["stream_recovered"]
        assert rep["roundtrip_max_error"] < 1e-12


def test_builtin_stream_produces_a_contact_form():
    _, rep = contact_from_beltrami(BeltramiData(BUILTIN_STREAM))
    assert rep["contact_passed"]


def test_vanishing_field_fails_the_contact_condition():
    _, rep = contact_from_beltrami(BeltramiData("1"))
    assert rep["stream_recovered"]       # H = F still holds
    assert not rep["contact_passed"]     # but alpha wedge dalpha vanishes


def test_product_stream_fails_contact_where_the_field_vanishes():
    # cos u cos v and its gradient vanish together at (pi/2, pi/2)
    _, rep = contact_from_beltrami(BeltramiData("cos(u)*cos(v)"))
    assert not rep["contact_passed"]
    loc = rep["contact_worst_location"]
    assert math.cos(loc["u"]) ** 2 + math.cos(loc["v"]) ** 2 < 1e-12


def test_roundtrip_reads_f_from_the_contact_sweep(monkeypatch):
    calls = []
    inner = contact.frame_values

    def counting(cf, chart, u, v, z):
        calls.append(z)
        return inner(cf, chart, u, v, z)

    monkeypatch.setattr(contact, "frame_values", counting)
    grid = (32, 24, 5)
    data = BeltramiData("cos(u) + 0.5*cos(v)")
    form, report = contact_from_beltrami(data, grid=grid)
    assert len(calls) == 1
    monkeypatch.undo()
    # the same error from H = −f|_Z evaluated on its own
    U, V = TubularChart.torus().charts["torus"].samples(*grid[:2])
    H = exceptional_hamiltonian(form).H_value(U, V, "torus")
    gap = float(np.max(np.abs(H - eval_value(data.stream, ("u", "v"),
                                              (U, V)))))
    assert report["roundtrip_max_error"] == gap
    assert report["stream_recovered"]

"""One test per acceptance criterion, each at its stated tolerance.

The criteria pin the package's headline results end to end: the sphere
and torus censuses, the validation residuals, the spectral closed forms,
the Morse/Euler bookkeeping, the flat-torus eigenfield suite, the
three-body runs, the autodiff corpus, and verdict stability under
tolerance tightening.  ``conftest.py`` prints a PASS/FAIL line per
criterion at the end of the session.
"""
import math
import random
import time

import pytest

from bcontactlab.beltrami import (
    BeltramiData,
    contact_from_beltrami,
    hamiltonian_identity_check,
    laplace_eigen_check,
    tangential_expressions,
)
from bcontactlab.contact import BReebField, exceptional_hamiltonian
from bcontactlab.critical import find_critical_points, stability_at
from bcontactlab.expressions import eval_value, gradient, hessian, parse
from bcontactlab.mcgehee import (
    McGeheeParams,
    McGeheeState,
    integrate_mcgehee,
    newtonian_oracle_compare,
)
from bcontactlab.orbits import refinement_check
from bcontactlab.runner import run
from bcontactlab.scenarios import load_scenario, scenario_form
from tests.test_expressions import FD_CORPUS
from tests_fd import central_gradient, central_hessian

MODES = [(m, n) for m in range(-3, 4) for n in range(-3, 4)
         if (m, n) != (0, 0)]


@pytest.fixture(scope="module")
def sphere(tmp_path_factory):
    t0 = time.perf_counter()
    result = run("sphere", "all", tmp_path_factory.mktemp("sphere"))
    return result.report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def torus(tmp_path_factory):
    t0 = time.perf_counter()
    result = run("torus", "all", tmp_path_factory.mktemp("torus"))
    return result.report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def beltrami_report(tmp_path_factory):
    return run("beltrami", "all",
               tmp_path_factory.mktemp("beltrami")).report


def _library_setup(name):
    form = scenario_form(load_scenario(name))
    reeb = BReebField(form)
    points = find_critical_points(exceptional_hamiltonian(form))
    reports = [stability_at(p, reeb) for p in points]
    return reeb, reports


def test_c1_sphere_census(sphere):
    report, wall = sphere
    assert wall < 60.0
    points = report["critical_points"]
    assert len(points) == 2
    assert {p["chart"] for p in points} == {"north-pole", "south-pole"}
    for p in points:
        assert math.hypot(p["u"], p["v"]) < 1e-9  # both sit at their pole
    kinds = {s["kind"] for s in report["stability"]}
    assert kinds == {"nonhyperbolic-1d-transverse"}
    census = report["census"]
    assert census["n_distinct"] == 4
    assert census["weighted_total"] == 4  # 4N with N = 1
    assert census["consistent_with_bound"] is True
    for orbit in report["orbits"]:
        assert orbit["near_end"]["verdict"] == "limits-to"
        assert orbit["near_end"]["distance"] < 1e-5


def test_c2_torus_census(torus):
    report, wall = torus
    assert wall < 120.0
    assert report["census"]["verdict"] == "infinite"
    assert report["census"]["consistent_with_bound"] is True
    saddles = [p for p in report["critical_points"] if p["index"] == 1]
    assert len(saddles) >= 2
    for saddle in saddles:
        fan = [o for o in report["orbits"] if o["psi"] is not None
               and o["point"] == saddle]
        assert len(fan) == 16
        for orbit in fan:
            assert orbit["near_end"]["verdict"] == "limits-to"
            assert orbit["near_end"]["point"] == saddle


def test_c3_reeb_residuals(sphere, torus):
    for report, _ in (sphere, torus):
        checks = {c["check"]: c for c in report["checks"]}
        assert checks["reeb_residuals"]["worst_value"] < 1e-9
        assert checks["hamiltonian_identity"]["worst_value"] < 1e-9
        assert checks["hamiltonian_identity"]["passed"]


def test_c4_spectral_closed_forms(sphere, torus, beltrami_report):
    for report, _ in (sphere, torus):
        for entry in report["stability"]:
            assert entry["max_rel_mismatch"] < 1e-6
    stagnation = beltrami_report["stagnation"]
    assert len(stagnation) == 4
    for entry in stagnation:
        assert entry["max_rel_mismatch"] < 1e-10


def test_c5_morse_euler(sphere, torus):
    for report, _ in (sphere, torus):
        for comp in report["bound"]["per_component"]:
            assert comp["euler_ok"]
            assert comp["euler"] == comp["euler_expected"]
            for count, betti in zip(comp["counts"], comp["betti"]):
                assert count >= betti


def test_c6_beltrami_mode_suite():
    signs = set()
    for m, n in MODES:
        source = f"cos({m}*u + {n}*v)"
        data = BeltramiData(source)

        # closed forms on a coarse grid: X_u = n sin(mu+nv), X_v = -m sin(..)
        x_u, x_v = tangential_expressions(data)
        expr = parse(f"sin({m}*u + {n}*v)", ("u", "v"))
        for k in range(25):
            at = (0.251 * k, 0.173 * k + 0.3)
            s = eval_value(expr, ("u", "v"), at)
            assert abs(eval_value(x_u, ("u", "v"), at) - n * s) <= 1e-12
            assert abs(eval_value(x_v, ("u", "v"), at) + m * s) <= 1e-12

        laplace = laplace_eigen_check(data)
        assert laplace.verdict == "eigenfunction"
        assert abs(laplace.eigenvalue + (m * m + n * n)) < 1e-8

        identity = hamiltonian_identity_check(data)
        assert identity.passed
        signs.add(identity.global_sign)

        _, roundtrip = contact_from_beltrami(data)
        assert roundtrip["stream_recovered"]
        assert roundtrip["roundtrip_max_error"] <= 1e-10
    assert len(signs) == 1  # one orientation convention across the suite


def test_c7_three_body():
    t0 = time.perf_counter()
    params = McGeheeParams(0.5)
    far = McGeheeState(0.2, 0.0, 0.0, math.sqrt(50.0))
    traj = integrate_mcgehee(far, params, t_span=(0.0, 100.0))
    assert traj.energy_drift < 1e-8

    rim = McGeheeState(0.0, 0.7, 0.1, 0.4)
    cycle = integrate_mcgehee(rim, params, t_span=(0.0, 2 * math.pi))
    assert all(row[0] == 0.0 for row in cycle.y)
    gap = max(abs(a - b) for a, b in zip(
        cycle.y[-1], (0.0, 0.7 - 2 * math.pi, 0.1, 0.4)))
    assert gap < 1e-8

    oracle = newtonian_oracle_compare(far, params, t_span=(0.0, 10.0))
    assert oracle["max_deviation"] < 1e-6
    assert time.perf_counter() - t0 < 30.0


def test_c8_autodiff_corpus():
    rng = random.Random(27182)
    names = ("x", "y", "z")
    cases = 0
    for source in FD_CORPUS:
        expr = parse(source, names)
        first, second = gradient(expr, names), hessian(expr, names)
        done = 0
        while done < 20:
            point = tuple(rng.uniform(-1.2, 1.2) for _ in range(3))
            try:
                exact_grad = [eval_value(d, names, point) for d in first]
                exact_hess = [[eval_value(d, names, point) for d in row]
                              for row in second]
                grad = central_gradient(
                    lambda q: eval_value(expr, names, q), point)
                hess = central_hessian(
                    lambda q: eval_value(expr, names, q), point)
            except Exception:
                continue  # stencil touched a kink; resample
            for i in range(3):
                assert abs(exact_grad[i] - grad[i]) / (1 + abs(exact_grad[i])) < 1e-6
                for j in range(3):
                    assert (abs(exact_hess[i][j] - hess[i][j])
                            / (1 + abs(exact_hess[i][j]))) < 1e-4
            done += 1
            cases += 1
    assert cases == 200


def test_c9_verdicts_survive_tightening():
    for name in ("sphere", "torus"):
        reeb, reports = _library_setup(name)
        outcome = refinement_check(reeb, reports)
        assert outcome["factor"] == 10.0
        assert outcome["stable"] is True
        assert outcome["worst_final_shift"] < 1e-5
        for orbit in outcome["fine"]:
            assert orbit.near_end.verdict == "limits-to"

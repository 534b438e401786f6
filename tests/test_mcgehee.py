"""Restricted three-body problem in the inverted radial variable."""
import math
import random

import numpy as np
import pytest

from bcontactlab import mcgehee, rk45
from bcontactlab.mcgehee import (
    CollisionError,
    McGeheeParams,
    McGeheeState,
    hamiltonian,
    integrate_mcgehee,
    newtonian_oracle_compare,
    polar_hamiltonian,
    vector_field,
)
from tests_fd import central_gradient

HALF = McGeheeParams(0.5)
# r0 = 50, circular-speed angular momentum sqrt(r0)
FAR_START = McGeheeState(0.2, 0.0, 0.0, math.sqrt(50.0))


def test_params_reject_degenerate_mass_ratio():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            McGeheeParams(bad)


def test_state_rejects_negative_x():
    with pytest.raises(ValueError):
        McGeheeState(-0.1, 0.0, 0.0, 0.0)


def test_radius_mapping():
    assert McGeheeState(0.2, 0.0, 0.0, 0.0).r == pytest.approx(50.0, rel=1e-15)
    assert McGeheeState(0.25, 0.0, 0.0, 0.0).r == 32.0
    assert McGeheeState(0.0, 0.0, 0.0, 0.0).r == math.inf


def test_energy_matches_polar_form_at_r200():
    s = McGeheeState(0.1, 0.0, 0.0, 0.0)
    h = hamiltonian(s, HALF)
    # r = 2/x^2 = 200; distances to the primaries are 199.5 and 200.5
    assert h == pytest.approx(-0.5 * (1 / 199.5 + 1 / 200.5), abs=1e-15)
    assert abs(h - polar_hamiltonian(200.0, 0.0, 0.0, 0.0, 0.5)) < 1e-12


def test_energy_on_infinity_manifold():
    s = McGeheeState(0.0, 2.2, 0.3, 0.7)
    # all potential terms carry x^2 prefactors and vanish
    assert hamiltonian(s, HALF) == 0.3**2 / 2 - 0.7
    assert hamiltonian(McGeheeState(0.0, 0.0, 0.0, 1.0), HALF) == -1.0


def test_field_on_infinity_manifold_is_rigid_rotation():
    f = vector_field(McGeheeState(0.0, 1.3, 0.2, 0.7), HALF)
    assert f.tolist() == [0.0, -1.0, 0.0, 0.0]


def test_radial_chain_rule():
    # dr/dt = (-4/x^3) dx/dt must come out as dH/dPr = Pr
    s = McGeheeState(0.2, 0.9, 0.31, 7.0)
    f = vector_field(s, HALF)
    assert -4.0 * f[0] / s.x**3 == pytest.approx(s.pr, rel=1e-12)


def test_field_matches_central_differences_of_the_energy():
    # the closed-form partials behind Hamilton's equations, checked against
    # the energy itself: x' = -(x^3/4) H_Pr, a' = H_Pa, Pr' = (x^3/4) H_x,
    # Pa' = -H_a
    rng = random.Random(4)
    for _ in range(20):
        params = McGeheeParams(rng.uniform(0.1, 0.9))
        y = (rng.uniform(0.05, 0.6), rng.uniform(-3.0, 3.0),
             rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
        g = central_gradient(lambda q: hamiltonian(McGeheeState(*q), params), y)
        k = y[0] ** 3 / 4.0
        expected = (-k * g[2], g[3], k * g[0], -g[1])
        for got, want in zip(vector_field(McGeheeState(*y), params), expected):
            assert abs(got - want) / (1 + abs(want)) < 1e-6


def test_angular_momentum_conserved_on_symmetry_axis():
    # the potential is even in a, so dPa/dt = 0 at a = 0
    f = vector_field(McGeheeState(0.2, 0.0, 0.1, 2.0), HALF)
    assert f[3] == 0.0


def test_collision_guard():
    # x^2 = 2/mu puts the body on top of the heavy primary at a = 0
    with pytest.raises(CollisionError):
        hamiltonian(McGeheeState(2.0, 0.0, 0.0, 0.0), HALF)
    with pytest.raises(CollisionError):
        vector_field(McGeheeState(2.0, 0.0, 0.0, 0.0), HALF)


def test_energy_drift_over_long_run():
    traj = integrate_mcgehee(FAR_START, HALF, t_span=(0.0, 100.0))
    assert traj.status == "reached-end"
    assert traj.energy_drift < 1e-8


def test_a_failed_run_raises_its_exception(monkeypatch):
    # the integrator holds a failed lane's exception; the one-lane run
    # here raises it
    monkeypatch.setattr(rk45, "MAX_STEPS", 10)
    with pytest.raises(RuntimeError, match="exceeded 10 steps"):
        integrate_mcgehee(FAR_START, HALF, t_span=(0.0, 100.0))


def test_infinity_manifold_is_exactly_invariant():
    s0 = McGeheeState(0.0, 0.4, 0.2, 0.7)
    traj = integrate_mcgehee(s0, HALF, t_span=(0.0, 2 * math.pi))
    assert np.all(traj.y[:, 0] == 0.0)
    # closed-form flow on {x = 0}: a(t) = a0 - t, momenta frozen
    expected = np.array([0.0, 0.4 - 2 * math.pi, 0.2, 0.7])
    assert np.abs(traj.y[-1] - expected).max() < 1e-8
    # which is the 2pi-periodic return once the angle is wrapped
    wrapped = traj.y[-1].copy()
    wrapped[1] = wrapped[1] % (2 * math.pi)
    assert np.abs(wrapped - np.array([0.0, 0.4, 0.2, 0.7])).max() < 1e-8


def test_oracle_agreement():
    report = newtonian_oracle_compare(FAR_START, HALF, t_span=(0.0, 10.0))
    assert report["max_deviation"] < 1e-6
    assert set(report["per_component"]) == {"r", "a", "Pr", "Pa"}
    assert report["n_samples"] > 2


def test_oracle_zero_span_is_exact():
    report = newtonian_oracle_compare(FAR_START, HALF, t_span=(0.0, 0.0))
    assert report["max_deviation"] == 0.0


def test_oracle_requires_positive_x():
    with pytest.raises(ValueError):
        newtonian_oracle_compare(McGeheeState(0.0, 0.0, 0.0, 1.0), HALF)


def _compare_at(monkeypatch, tols, oracle_tols):
    """The oracle comparison with both integrators' tolerances patched."""
    monkeypatch.setattr(rk45, "RTOL", tols[0])
    monkeypatch.setattr(rk45, "ATOL", tols[1])
    monkeypatch.setattr(mcgehee, "ORACLE_RTOL", oracle_tols[0])
    monkeypatch.setattr(mcgehee, "ORACLE_ATOL", oracle_tols[1])
    return newtonian_oracle_compare(FAR_START, HALF, t_span=(0.0, 10.0))


def test_deviation_shrinks_under_tolerance_tightening(monkeypatch):
    # Baseline one decade looser than the integrator defaults: there the
    # deviation is dominated by truncation error, and tightening both
    # integrators by 10x drops it by well over 10x (the tight run lands on
    # the accuracy floor of the comparison).
    loose = _compare_at(monkeypatch, (1e-9, 1e-11), (1e-12, 1e-14))
    tight = _compare_at(monkeypatch, (1e-10, 1e-12), (1e-13, 1e-15))
    assert loose["max_deviation"] > 0
    assert tight["max_deviation"] * 10 <= loose["max_deviation"]


def test_forward_backward_roundtrip():
    fwd = integrate_mcgehee(FAR_START, HALF, t_span=(0.0, 50.0))
    back = integrate_mcgehee(McGeheeState(*fwd.y[-1].tolist()), HALF,
                             t_span=(50.0, 0.0))
    assert np.abs(back.y[-1] - FAR_START.as_array()).max() < 1e-7

import math

import numpy as np
import pytest

from bcontactlab.rk45 import (
    Event, NonFiniteState, StepSizeUnderflow, integrate,
)


def test_linear_decay_matches_exponential():
    sol = integrate(lambda t, y: -y, [1.0], (0.0, 10.0), rtol=1e-10, atol=1e-12)
    assert sol.status == "reached-end"
    assert sol.t_final == 10.0
    assert sol.y_final[0] == pytest.approx(math.exp(-10.0), rel=1e-9)


def test_harmonic_oscillator_energy_drift_is_tiny():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    sol = integrate(rhs, [1.0, 0.0], (0.0, 100.0), rtol=1e-11, atol=1e-13)
    energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-7
    assert sol.y_final[0] == pytest.approx(math.cos(100.0), abs=1e-7)


def test_backward_time_returns_to_start():
    def rhs(t, y):
        return np.array([y[1], -math.sin(y[0])])

    fwd = integrate(rhs, [0.4, 0.0], (0.0, 7.0), rtol=1e-11, atol=1e-13)
    back = integrate(rhs, fwd.y_final, (7.0, 0.0), rtol=1e-11, atol=1e-13)
    assert back.t_final == 0.0
    assert np.allclose(back.y_final, [0.4, 0.0], atol=1e-8)
    assert np.all(np.diff(back.t) < 0)


def test_event_is_located_to_high_precision():
    # y = cos t crosses cos(0.3) going down at t = 0.3
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    target = math.cos(0.3)
    ev = Event(fn=lambda t, y: y[0] - target, direction=-1, name="cross")
    sol = integrate(rhs, [1.0, 0.0], (0.0, 2.0), rtol=1e-10, atol=1e-12,
                    events=[ev])
    assert sol.status == "event:cross"
    assert sol.t_final == pytest.approx(0.3, abs=1e-10)
    assert sol.y_final[0] == pytest.approx(target, abs=1e-10)


def test_non_terminal_event_records_all_crossings():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    ev = Event(fn=lambda t, y: y[0], direction=1, terminal=False, name="up")
    sol = integrate(rhs, [0.0, 1.0], (0.0, 20.0), rtol=1e-10, atol=1e-12,
                    events=[ev])
    assert sol.status == "reached-end"
    # sin t crosses zero upward at multiples of 2π; the start does not count
    expected = [2 * math.pi, 4 * math.pi, 6 * math.pi]
    assert np.allclose(sol.t_events[0], expected, atol=1e-9)


def test_stop_predicate_truncates_with_reason():
    sol = integrate(lambda t, y: np.array([1.0]), [0.0], (0.0, 5.0),
                    stop=lambda t, y: "past-half" if y[0] > 0.5 else None)
    assert sol.status == "past-half"
    assert sol.t_final < 5.0


def test_discontinuous_rhs_underflows_step():
    def rhs(t, y):
        return np.array([0.0 if t < 1.0 else 1e18])

    with pytest.raises(StepSizeUnderflow):
        integrate(rhs, [0.0], (0.0, 2.0), rtol=1e-10, atol=1e-12)


def test_non_finite_state_is_reported():
    def rhs(t, y):
        return np.array([math.inf if t > 0.5 else 1.0])

    with pytest.raises(NonFiniteState):
        integrate(rhs, [0.0], (0.0, 1.0))


def test_step_budget_is_enforced():
    def rhs(t, y):
        return np.array([math.sin(40 * t)])

    with pytest.raises(RuntimeError, match="exceeded"):
        integrate(rhs, [0.0], (0.0, 100.0), rtol=1e-12, atol=1e-14,
                  max_steps=10)


def test_zero_span_is_a_no_op():
    sol = integrate(lambda t, y: np.array([1.0]), [3.0], (2.0, 2.0))
    assert sol.status == "reached-end"
    assert sol.t_final == 2.0 and sol.y_final[0] == 3.0
    assert sol.n_steps == 0


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


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def _unit_speed(t, y):
    return np.array([1.0])


def _level(c, direction, name):
    return Event(fn=lambda t, y: y[0] - c, direction=direction, name=name)


@pytest.mark.parametrize("rhs, y0, t_span, events, winner, t_star", [
    # y = sin t starts on g = 0; the start is no upward crossing, 2π is
    (_oscillator, [0.0, 1.0], (0.0, 20.0), [_level(0.0, 1, "up")], "up",
     2 * math.pi),
    # y = t: the steps grow about 8× each, and the step from t ≈ 0.20 to
    # 0.48 crosses 0.3 and 0.4 at once
    (_unit_speed, [0.0], (0.0, 1.0), [_level(0.3, 1, "a"), _level(0.4, 1, "b")],
     "a", 0.3),
    (_unit_speed, [0.0], (0.0, 1.0), [_level(0.4, 1, "b"), _level(0.3, 1, "a")],
     "a", 0.3),
    # backward from t = 1 the step from t ≈ 0.70 to 0.27 crosses 0.4 first
    (_unit_speed, [1.0], (1.0, 0.0),
     [_level(0.3, -1, "a"), _level(0.4, -1, "b")], "b", 0.4),
    (_unit_speed, [1.0], (1.0, 0.0),
     [_level(0.4, -1, "b"), _level(0.3, -1, "a")], "b", 0.4),
], ids=["not-at-start", "forward", "forward-reordered", "backward",
        "backward-reordered"])
def test_first_event_crossing_ends_the_run(rhs, y0, t_span, events, winner,
                                           t_star):
    sol = integrate(rhs, y0, t_span, rtol=1e-10, atol=1e-12, events=events)
    assert sol.status == f"event:{winner}"
    assert sol.t_final == pytest.approx(t_star, abs=1e-10)
    ev = next(e for e in events if e.name == winner)
    assert ev.fn(sol.t_final, sol.y_final) == pytest.approx(0.0, abs=1e-10)
    # events do not steer the steps, so the event-free run shows the step the
    # cut fell in: it starts at sol.t[-2], and every event crosses within it
    free = integrate(rhs, y0, t_span, rtol=1e-10, atol=1e-12)
    k = len(sol.t) - 2
    assert np.array_equal(sol.t[:-1], free.t[:k + 1])
    for e in events:
        g_a = e.fn(free.t[k], free.y[k])
        g_b = e.fn(free.t[k + 1], free.y[k + 1])
        assert (g_a < 0 <= g_b) if e.direction > 0 else (g_a > 0 >= g_b)


def test_event_direction_must_be_signed():
    with pytest.raises(ValueError, match="direction"):
        Event(fn=lambda t, y: y[0], direction=0, name="either")


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


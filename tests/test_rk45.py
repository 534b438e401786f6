import math

import numpy as np
import pytest

from bcontactlab import rk45
from bcontactlab.rk45 import (
    Event, NonFiniteState, StepSizeUnderflow, integrate,
)


def _oscillator(t, y):
    return np.stack([y[:, 1], -y[:, 0]], axis=1)


def _unit_speed(t, y):
    return np.ones_like(y)


def test_linear_decay_matches_exponential():
    sol, = integrate(lambda t, y: -y, [[1.0]], (0.0, 10.0), rtol=1e-10,
                     atol=1e-12)
    assert sol.status == "reached-end"
    assert sol.t[-1] == 10.0
    assert sol.y[-1, 0] == pytest.approx(math.exp(-10.0), rel=1e-9)


def test_harmonic_oscillator_energy_drift_is_tiny():
    sol, = integrate(_oscillator, [[1.0, 0.0]], (0.0, 100.0), rtol=1e-11,
                     atol=1e-13)
    energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-7
    assert sol.y[-1, 0] == pytest.approx(math.cos(100.0), abs=1e-7)


def test_backward_time_returns_to_start():
    def rhs(t, y):
        return np.stack([y[:, 1], -np.sin(y[:, 0])], axis=1)

    fwd, = integrate(rhs, [[0.4, 0.0]], (0.0, 7.0), rtol=1e-11, atol=1e-13)
    back, = integrate(rhs, fwd.y[-1:], (7.0, 0.0), rtol=1e-11, atol=1e-13)
    assert back.t[-1] == 0.0
    assert np.allclose(back.y[-1], [0.4, 0.0], atol=1e-8)
    assert np.all(np.diff(back.t) < 0)


def test_event_is_located_to_high_precision():
    # y = cos t crosses cos(0.3) going down at t = 0.3
    target = math.cos(0.3)
    ev = Event(fn=lambda t, y: y[:, 0] - target, direction=-1, name="cross")
    sol, = integrate(_oscillator, [[1.0, 0.0]], (0.0, 2.0), rtol=1e-10,
                     atol=1e-12, events=[ev])
    assert sol.status == "event:cross"
    assert sol.t[-1] == pytest.approx(0.3, abs=1e-10)
    assert sol.y[-1, 0] == pytest.approx(target, abs=1e-10)


def _level(c, direction, name):
    return Event(fn=lambda t, y: y[:, 0] - c, direction=direction, name=name)


@pytest.mark.parametrize("rhs, y0, t_span, events, winner, t_star", [
    # y = sin t starts on g = 0; the start is no upward crossing, 2π is
    (_oscillator, [[0.0, 1.0]], (0.0, 20.0), [_level(0.0, 1, "up")], "up",
     2 * math.pi),
    # y = t: the steps grow about 8× each, and the step from t ≈ 0.20 to
    # 0.48 crosses 0.3 and 0.4 at once
    (_unit_speed, [[0.0]], (0.0, 1.0),
     [_level(0.3, 1, "a"), _level(0.4, 1, "b")], "a", 0.3),
    (_unit_speed, [[0.0]], (0.0, 1.0),
     [_level(0.4, 1, "b"), _level(0.3, 1, "a")], "a", 0.3),
    # backward from t = 1 the step from t ≈ 0.70 to 0.27 crosses 0.4 first
    (_unit_speed, [[1.0]], (1.0, 0.0),
     [_level(0.3, -1, "a"), _level(0.4, -1, "b")], "b", 0.4),
    (_unit_speed, [[1.0]], (1.0, 0.0),
     [_level(0.4, -1, "b"), _level(0.3, -1, "a")], "b", 0.4),
], ids=["not-at-start", "forward", "forward-reordered", "backward",
        "backward-reordered"])
def test_first_event_crossing_ends_the_run(rhs, y0, t_span, events, winner,
                                           t_star):
    sol, = integrate(rhs, y0, t_span, rtol=1e-10, atol=1e-12, events=events)
    assert sol.status == f"event:{winner}"
    assert sol.t[-1] == pytest.approx(t_star, abs=1e-10)
    ev = next(e for e in events if e.name == winner)
    assert ev.fn(sol.t[-1:], sol.y[-1:])[0] == pytest.approx(0.0, abs=1e-10)
    # events do not steer the steps, so the event-free run shows the step the
    # cut fell in: it starts at sol.t[-2], and every event crosses within it
    free, = integrate(rhs, y0, t_span, rtol=1e-10, atol=1e-12)
    k = len(sol.t) - 2
    assert np.array_equal(sol.t[:-1], free.t[:k + 1])
    for e in events:   # the samples of the free run, as lanes
        g_a, g_b = e.fn(free.t[k:k + 2], free.y[k:k + 2])
        assert (g_a < 0 <= g_b) if e.direction > 0 else (g_a > 0 >= g_b)


def test_event_direction_must_be_signed():
    with pytest.raises(ValueError, match="direction"):
        Event(fn=lambda t, y: y[:, 0], direction=0, name="either")


def test_stop_predicate_truncates_with_reason():
    def past_half(t, y):
        return ["past-half" if u > 0.5 else None for u in y[:, 0].tolist()]

    sol, = integrate(_unit_speed, [[0.0]], (0.0, 5.0), stop=past_half)
    assert sol.status == "past-half"
    assert sol.t[-1] < 5.0


def test_discontinuous_rhs_underflows_step():
    def rhs(t, y):
        return np.where(t < 1.0, 0.0, 1e18)[:, None]

    lane, = integrate(rhs, [[0.0]], (0.0, 2.0), rtol=1e-10, atol=1e-12)
    assert isinstance(lane, StepSizeUnderflow)


def test_non_finite_state_is_reported():
    def rhs(t, y):
        return np.where(t > 0.5, math.inf, 1.0)[:, None]

    lane, = integrate(rhs, [[0.0]], (0.0, 1.0))
    assert isinstance(lane, NonFiniteState)


def test_step_budget_is_enforced(monkeypatch):
    def rhs(t, y):
        return np.sin(40 * t)[:, None]

    monkeypatch.setattr(rk45, "MAX_STEPS", 10)
    lane, = integrate(rhs, [[0.0]], (0.0, 100.0), rtol=1e-12, atol=1e-14)
    assert isinstance(lane, RuntimeError)
    assert "exceeded 10 steps" in str(lane)


def test_zero_span_is_a_no_op():
    sol, = integrate(_unit_speed, [[3.0]], (2.0, 2.0))
    assert sol.status == "reached-end"
    assert sol.t[-1] == 2.0 and sol.y[-1, 0] == 3.0
    assert sol.n_steps == 0


def _swirl(a, b, c):
    """A nonlinear field of lanes."""
    def rhs(t, y):
        u, v, w = y[:, 0], y[:, 1], y[:, 2]
        return np.stack([v + a * np.sin(w * t), -u + b * np.sin(v * w),
                         c * np.cos(u) - w], axis=1)
    return rhs


def _far(t, y):
    far = np.abs(y[:, 1]) > 2.0
    return ["far" if k else None for k in far.tolist()] if far.any() else None


_SWIRL_EVENTS = [
    Event(fn=lambda t, y: y[:, 0] - 1.5, direction=1, name="up"),
    Event(fn=lambda t, y: y[:, 2] + 1.0, direction=-1, name="down"),
]


def test_lanes_take_the_steps_of_their_own_runs():
    rng = np.random.default_rng(3)
    rhs = _swirl(*rng.uniform(0.5, 2.0, 3))
    y0 = rng.uniform(-1.0, 1.0, (20, 3))
    t1 = rng.uniform(0.5, 6.0, 20) * np.where(rng.random(20) < 0.5, -1, 1)
    lanes = integrate(rhs, y0, (0.0, t1), rtol=1e-9, atol=1e-11,
                      events=_SWIRL_EVENTS, stop=_far)
    # both directions, every way to end, at different steps, and rejections
    assert (t1 > 0).any() and (t1 < 0).any()
    assert {lane.status for lane in lanes} == {
        "event:up", "event:down", "far", "reached-end"}
    assert len({lane.n_steps for lane in lanes}) > 10
    assert any(lane.n_rejected for lane in lanes)
    for k, lane in enumerate(lanes):
        one, = integrate(rhs, y0[k:k + 1], (0.0, t1[k]), rtol=1e-9,
                         atol=1e-11, events=_SWIRL_EVENTS, stop=_far)
        assert np.array_equal(lane.t, one.t)
        assert np.array_equal(lane.y, one.y)
        assert lane.status == one.status
        assert np.array_equal(
            [lane.n_steps, lane.n_rejected, lane.n_fev, lane.min_step,
             lane.max_step],
            [one.n_steps, one.n_rejected, one.n_fev, one.min_step,
             one.max_step])
    assert lanes.n_fev == sum(lane.n_fev for lane in lanes)
    assert lanes.n_steps == sum(lane.n_steps for lane in lanes)
    assert lanes.n_rejected == sum(lane.n_rejected for lane in lanes)


def test_a_failing_lane_fails_alone():
    def rhs(t, y):  # blows up once u passes 1, for the lane that gets there
        return np.stack([np.where(y[:, 0] > 1.0, math.inf, 1.0),
                         -y[:, 1]], axis=-1)

    y0 = np.array([[-1.0, 1.0], [0.5, 1.0], [-3.0, 1.0]])
    lanes = integrate(rhs, y0, (0.0, 1.0))
    assert isinstance(lanes[1], NonFiniteState)
    alone, = integrate(rhs, y0[1:2], (0.0, 1.0))
    assert isinstance(alone, NonFiniteState)
    assert str(lanes[1]) == str(alone)
    for k in (0, 2):
        one, = integrate(rhs, y0[k:k + 1], (0.0, 1.0))
        assert lanes[k].status == "reached-end"
        assert np.array_equal(lanes[k].y, one.y)
    assert lanes.n_steps == lanes[0].n_steps + lanes[2].n_steps


def test_per_lane_values_follow_their_lanes_through_compaction():
    # y' = a_k·y until y crosses 2; lane 3 has a zero span and lane 4 a
    # non-finite derivative at the start, so both leave before the first step
    a = np.array([0.3, 1.7, -0.4, 0.9, math.inf, 2.5, 1.1, 0.6])
    t1 = np.array([5.0, 5.0, 5.0, 0.0, 5.0, 5.0, -5.0, 1.0])
    y0 = np.ones((8, 1))
    crossing = [Event(fn=lambda t, y: y[:, 0] - 2.0, direction=1,
                      name="up")]
    lanes = integrate(lambda t, y, a: a[:, None] * y, y0, (0.0, t1),
                      events=crossing, per_lane=a)
    assert {lane.status for lane in lanes if not isinstance(lane, Exception)
            } == {"event:up", "reached-end"}
    assert len({lane.n_steps for lane in lanes
                if not isinstance(lane, Exception)}) > 4
    alone, = integrate(lambda t, y: a[4] * y, y0[4:5], (0.0, t1[4]),
                       events=crossing)
    assert isinstance(alone, NonFiniteState)
    assert str(lanes[4]) == str(alone)
    for k, lane in enumerate(lanes):
        if k == 4:
            continue
        one, = integrate(lambda t, y: a[k] * y, y0[k:k + 1], (0.0, t1[k]),
                         events=crossing)
        assert np.array_equal(lane.t, one.t)
        assert np.array_equal(lane.y, one.y)
        assert lane.stats_dict() == one.stats_dict()


def test_per_lane_values_need_one_entry_per_lane():
    with pytest.raises(ValueError, match="one entry per lane"):
        integrate(lambda t, y, a: y, np.ones((3, 1)), (0.0, 1.0),
                  per_lane=np.ones(2))
    for state in (np.ones(3), np.ones((1, 3, 1))):   # the one state shape
        with pytest.raises(ValueError, match=r"\(lanes, dim\)"):
            integrate(lambda t, y: y, state, (0.0, 1.0))

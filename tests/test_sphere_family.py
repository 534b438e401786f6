"""The dichotomy across its wall: f_t = Z + t(x² − y²) on the sphere.

With the sphere builtin's β every f_t is contact.  Below t = 1/2 the only
critical points are the poles, both extrema, and the census is
``at-least-2N``.  Above it the poles are saddles, where DR(p) has
λ± = ±√(4t² − 1)/2, and four extrema sit at Z = ±1/(2t) with
f = ±(t + 1/(4t)): the census is ``infinite``.  The scenarios are the
``sphere-t<t>`` forms of ``tools/run_catalogue.py``, built by its own
``sphere_family``.
"""
import json
import math

import pytest

from bcontactlab.runner import run
from tools.run_catalogue import sphere_family

TOL = 1e-6  # as acceptance criterion C4


@pytest.mark.parametrize("t", [0.25, 0.45, 0.6, 0.75])
def test_the_census_turns_infinite_past_one_half(tmp_path, t):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sphere_family(t)))
    result = run(str(path), "all", tmp_path / "out")
    assert result.exit_status == 0
    report = result.report
    points, stability = report["critical_points"], report["stability"]
    census = report["census"]
    assert census["consistent_with_bound"] is True
    assert census["n_distinct"] >= report["bound"]["lower_bound"]
    poles = [k for k, p in enumerate(points) if p["chart"].endswith("-pole")
             and math.hypot(p["u"], p["v"]) < TOL]
    assert sorted(points[k]["chart"] for k in poles) == ["north-pole",
                                                         "south-pole"]
    if t < 0.5:
        assert census["verdict"] == "at-least-2N"
        assert len(points) == 2
        assert {p["index"] for p in points} == {0, 2}
        return
    assert census["verdict"] == "infinite"
    assert len(points) == 6
    rate = math.sqrt(4 * t * t - 1) / 2
    for k in poles:
        assert points[k]["index"] == 1
        for lam in ("lambda_plus", "lambda_minus"):
            assert abs(complex(*stability[k][lam])) == pytest.approx(
                rate, abs=TOL)
    extrema = [p for k, p in enumerate(points) if k not in poles]
    assert {p["index"] for p in extrema} == {0, 2}
    for p in extrema:
        assert abs(p["f"]) == pytest.approx(t + 1 / (4 * t), abs=TOL)
        assert math.copysign(1, p["f"]) == (1 if p["index"] == 0 else -1)

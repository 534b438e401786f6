"""Scenario files: schema validation and the shipped built-ins."""
import copy
import json
import math
from importlib import resources

import pytest

from bcontactlab import contact, expressions, scenarios
from bcontactlab.contact import frame_values
from bcontactlab.expressions import eval_value, parse
from bcontactlab.runner import run
from bcontactlab.scenarios import (
    FIELD_MEMO_SIZE,
    PARSE_MEMO_SIZE,
    ScenarioError,
    builtin_names,
    load_scenario,
    scenario_form,
    sphere_field_strings,
)


def _write(tmp_path, payload, name="case.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return path


def _shipped(name):
    """A builtin's data, to edit into a payload of its own."""
    return copy.deepcopy(load_scenario(name).data)


# ---------------------------------------------------------------------------
# built-ins

def test_every_builtin_loads_and_matches_its_generator():
    directory = resources.files("bcontactlab") / "scenarios"
    assert set(builtin_names()) == {
        f.name[:-len(".json")] for f in directory.iterdir()
        if f.name.endswith(".json")}
    for name in builtin_names():
        assert load_scenario(name).name == name
    assert load_scenario("sphere").data["fields"] == sphere_field_strings()


def test_builtin_mcgehee_momentum_is_circular():
    data = load_scenario("mcgehee").data
    # r0 = 2/x0^2 = 50 and the angular momentum of a circular orbit is sqrt(r0)
    assert data["pa0"] == math.sqrt(50.0)


def test_sphere_scenario_builds_a_form():
    form = scenario_form(load_scenario("sphere"))
    assert form.atlas.kind == "sphere"
    assert set(form.fields) == {"north", "south", "north-pole", "south-pole"}


# ---------------------------------------------------------------------------
# schema errors

def test_unknown_key_is_named(tmp_path):
    payload = _shipped("torus")
    payload["fff"] = 1
    with pytest.raises(ScenarioError, match="'fff'"):
        load_scenario(_write(tmp_path, payload))


def test_empty_file_is_a_parse_error(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(ScenarioError, match="invalid JSON") as err:
        load_scenario(path)
    assert str(path) in str(err.value)


def test_unparseable_field_names_its_location(tmp_path):
    payload = _shipped("torus")
    payload["fields"]["torus"]["f"] = "cos(v) +"
    with pytest.raises(ScenarioError, match=r"fields\['torus'\]\['f'\]"):
        load_scenario(_write(tmp_path, payload))


def test_an_overflowing_literal_names_its_field(tmp_path):
    payload = _shipped("torus")
    payload["fields"]["torus"]["beta_z"] = "1e999"
    with pytest.raises(ScenarioError,
                       match=r"fields\['torus'\]\['beta_z'\].*overflows"):
        load_scenario(_write(tmp_path, payload))


def test_an_exponent_too_long_names_its_field(tmp_path):
    payload = _shipped("torus")
    payload["fields"]["torus"]["beta_u"] = "sin(v)^" + "0" * 5000 + "2"
    with pytest.raises(ScenarioError,
                       match=r"fields\['torus'\]\['beta_u'\].*too long"):
        load_scenario(_write(tmp_path, payload))


def test_missing_chart_is_named(tmp_path):
    payload = _shipped("sphere")
    del payload["fields"]["south-pole"]
    with pytest.raises(ScenarioError, match="'south-pole'"):
        load_scenario(_write(tmp_path, payload))


def test_stray_chart_is_named(tmp_path):
    payload = _shipped("torus")
    payload["fields"]["equator"] = {"f": "1"}
    with pytest.raises(ScenarioError, match="'equator'"):
        load_scenario(_write(tmp_path, payload))


@pytest.mark.parametrize("name", ["../escape", "a/b", "a\\b", ".", ".."])
def test_a_name_that_is_not_one_directory_is_refused(tmp_path, monkeypatch,
                                                     name):
    # the default output directory is runs/<name>: "../escape" would be
    # ./escape, and ".." would put report.json in the working directory
    payload = _shipped("mcgehee") | {"name": name}
    path = _write(tmp_path, payload)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ScenarioError, match="'name'"):
        run(str(path))
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("text", ['["a", "b"]', "NaN", '"Height field."'])
def test_description_must_be_a_string(tmp_path, text):
    # lax JSON: json.loads reads NaN and Infinity as floats
    payload = {**_shipped("torus"), "description": "@"}
    path = _write(tmp_path, json.dumps(payload).replace('"@"', text))
    if text.startswith('"'):
        assert load_scenario(path).data["description"] == json.loads(text)
        return
    with pytest.raises(ScenarioError, match="'description' must be a string"):
        load_scenario(path)


def test_mass_ratio_bounds(tmp_path):
    payload = _shipped("mcgehee")
    payload["mu"] = 1.0
    with pytest.raises(ScenarioError, match="'mu'"):
        load_scenario(_write(tmp_path, payload))


def test_nonexistent_path_lists_builtins():
    with pytest.raises(ScenarioError, match="built-in"):
        load_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# the field memo: strings parsed and trees derived once per process


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _derive_all(form):
    """Every chart's ChartTrees, with its partials derived."""
    trees = {}
    for name, cf in form.fields.items():
        trees[name] = cf.trees(form.atlas.charts[name])
        trees[name].frame_partials
    return trees


def test_a_second_build_derives_and_compiles_nothing(tmp_path, monkeypatch):
    counts = {}
    _counting(monkeypatch, contact, "differentiate", counts)
    _counting(monkeypatch, contact, "compile", counts)
    _counting(monkeypatch, expressions, "differentiate", counts)
    payload = _shipped("torus")  # strings no other test builds
    payload["fields"]["torus"]["f"] = "cos(v) + 0.3125*cos(u)*sin(v)"
    path = _write(tmp_path, payload)
    first = _derive_all(scenario_form(load_scenario(path)))
    assert counts["differentiate"] > 0 and counts["compile"] == 1
    counts.clear()
    second = _derive_all(scenario_form(load_scenario(path)))
    assert counts == {}
    assert second["torus"] is first["torus"]


def test_epsilons_share_trees_and_a_changed_string_does_not(tmp_path):
    payload = _shipped("sphere")
    payload["epsilon"] = 0.3
    form_a = scenario_form(load_scenario(_write(tmp_path, payload)))
    payload["epsilon"] = 0.6
    form_b = scenario_form(load_scenario(_write(tmp_path, payload)))
    assert (form_a.atlas.epsilon, form_b.atlas.epsilon) == (0.3, 0.6)
    for name in form_a.fields:
        assert form_b.fields[name] is form_a.fields[name]

    pole = payload["fields"]["north-pole"]
    assert pole["f"].startswith("1 - ")
    pole["f"] = "2" + pole["f"][1:]  # one character differs
    form_c = scenario_form(load_scenario(_write(tmp_path, payload)))
    for name in form_a.fields:
        assert (form_c.fields[name] is form_a.fields[name]) == (
            name != "north-pole"), name
    chart = form_c.atlas.charts["north-pole"]
    trees_a = form_a.fields["north-pole"].trees(chart)
    trees_c = form_c.fields["north-pole"].trees(chart)
    assert trees_c is not trees_a
    f_a = frame_values(form_a.fields["north-pole"], chart, 0.1, 0.2, 0.0)[2]
    f_c = frame_values(form_c.fields["north-pole"], chart, 0.1, 0.2, 0.0)[2]
    assert f_c == pytest.approx(f_a + 1.0, abs=1e-15)


def test_memos_stay_within_their_bounds(tmp_path):
    payload = _shipped("torus")
    for k in range(FIELD_MEMO_SIZE + 5):
        payload["fields"]["torus"]["f"] = f"cos(v) + {k + 1}e-3*sin(u)"
        payload["fields"]["torus"]["beta_z"] = f"{k}*sin(u)"
        scenario_form(load_scenario(_write(tmp_path, payload)))
    assert scenarios._chart_fields.cache_info().currsize <= FIELD_MEMO_SIZE
    assert scenarios._parse.cache_info().currsize <= PARSE_MEMO_SIZE


def test_a_string_that_fails_to_parse_fails_every_time(tmp_path):
    payload = _shipped("sphere")
    payload["fields"]["north"]["beta_v"] = "sin(theta)^"
    path = _write(tmp_path, payload)
    for _ in range(2):
        with pytest.raises(ScenarioError,
                           match=r"fields\['north'\]\['beta_v'\]"):
            load_scenario(path)


# ---------------------------------------------------------------------------
# geometric consistency of the shipped sphere fields
#
# The four charts describe one global 1-form, so the chart expressions must
# agree wherever two charts overlap.

FIELDS = sphere_field_strings()


def _f(chart, names, point):
    return eval_value(parse(FIELDS[chart]["f"], names), names, point)


def _beta(chart, names, point):
    return tuple(eval_value(parse(FIELDS[chart][k], names), names, point)
                 for k in ("beta_u", "beta_v"))


ANGULAR = ("theta", "phi", "z")
DISK = ("u", "v", "z")


def test_north_and_south_agree_on_the_equatorial_band():
    # south coordinates of the same point: (pi - theta, -phi); the phi
    # reversal flips the sign of the dphi coefficient
    for k in range(16):
        theta = 1.2 + 0.05 * (k % 4)
        phi = -math.pi + 2 * math.pi * k / 16
        north_f = _f("north", ANGULAR, (theta, phi, 0.0))
        south_f = _f("south", ANGULAR, (math.pi - theta, -phi, 0.0))
        assert south_f == pytest.approx(north_f, abs=1e-15)
        _, north_bphi = _beta("north", ANGULAR, (theta, phi, 0.0))
        _, south_bphi = _beta("south", ANGULAR, (math.pi - theta, -phi, 0.0))
        assert -south_bphi == pytest.approx(north_bphi, abs=1e-15)


@pytest.mark.parametrize("pole,angular", [("north-pole", "north"),
                                          ("south-pole", "south")])
def test_pole_disks_agree_with_the_angular_charts(pole, angular):
    # disk coordinates are geodesic polar around the chart's own pole,
    # u = theta cos(phi), v = theta sin(phi), sharing theta and phi with
    # the matching angular chart (whose theta also starts at that pole)
    for k in range(16):
        theta = 0.08 + 0.014 * k  # inside the disk, outside the delta cap
        phi = 2 * math.pi * (k + 0.5) / 16 - math.pi
        u, v = theta * math.cos(phi), theta * math.sin(phi)
        f_disk = _f(pole, DISK, (u, v, 0.0))
        f_ang = _f(angular, ANGULAR, (theta, phi, 0.0))
        assert f_disk == pytest.approx(f_ang, abs=1e-14)

        # pull the disk 1-form back along (theta, phi) -> (u, v)
        bu, bv = _beta(pole, DISK, (u, v, 0.0))
        du_dth, dv_dth = math.cos(phi), math.sin(phi)
        du_dph, dv_dph = -theta * math.sin(phi), theta * math.cos(phi)
        coeff_theta = bu * du_dth + bv * dv_dth
        coeff_phi = bu * du_dph + bv * dv_dph
        _, bphi = _beta(angular, ANGULAR, (theta, phi, 0.0))
        assert coeff_theta == pytest.approx(0.0, abs=1e-14)
        assert coeff_phi == pytest.approx(bphi, abs=1e-14)


def test_torus_fields_are_2pi_periodic():
    entry = load_scenario("torus").data["fields"]["torus"]
    names = ("u", "v", "z")
    for key in ("f", "beta_u", "beta_v", "beta_z"):
        e = parse(entry[key], names)
        for k in range(8):
            u, v = 0.7 * k, 0.4 * k + 0.1
            base = eval_value(e, names, (u, v, 0.0))
            moved = eval_value(e, names, (u + 2 * math.pi, v - 2 * math.pi, 0.0))
            assert moved == pytest.approx(base, abs=1e-12)

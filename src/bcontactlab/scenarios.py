"""Scenario definitions: named problem setups loadable from JSON.

A scenario file is a single JSON object with a ``kind`` key deciding its
schema:

``bcontact``
    A surface (``torus`` or ``sphere``) with per-chart field expressions
    ``f``, ``beta_u``, ``beta_v``, ``beta_z`` in that chart's variables.
``beltrami``
    A metric on the torus (entries ``h_uu``, ``h_uv``, ``h_vv``), a stream
    function ``stream`` and its ``eigenvalue``.
``mcgehee``
    A mass ratio ``mu`` and an initial state for the collinear problem in
    inverted-radius coordinates.

Unknown keys are rejected by name rather than ignored, so typos in option
names fail loudly.  The built-in scenarios are the JSON files in the
package's ``scenarios`` directory, one file per name in
:func:`builtin_names`, and nothing else defines them; each loads by bare
name: ``load_scenario("sphere")``.  A new builtin is one more file there
and its name in :func:`builtin_names`.

The sphere file's pole-disk strings are, with rho = u^2 + v^2, the rho^8
truncations of the smooth radial profiles cos(sqrt(rho)) (for f) and
sin(sqrt(rho))^2 / rho (for beta), where the angular formulas
``cos(theta)``, ``sin(theta)^2`` degenerate.  Both series alternate with
rapidly shrinking terms, so the remainder is below 1e-16 for rho <= 0.09:
exact to double precision on a cap of radius 0.3.

Field strings are parsed once per process: validation and
:func:`scenario_form` share one bounded parse memo, and a second bounded
memo hands every scenario with the same strings in a chart the same
:class:`ChartFields`, whose frame trees, compiled frame function and
partials are then derived once, not once per run.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .charts import TubularChart
from .contact import BContactForm, ChartFields
from .expressions import ParseError, parse

__all__ = [
    "ScenarioError", "Scenario", "load_scenario", "builtin_names",
    "scenario_form",
]


class ScenarioError(ValueError):
    """A scenario file failed validation."""


def builtin_names():
    return ("torus", "sphere", "beltrami", "mcgehee")


# ---------------------------------------------------------------------------
# validation


_FIELD_KEYS = {"f", "beta_u", "beta_v", "beta_z"}
_ALLOWED = {
    "bcontact": {"kind", "name", "description", "surface", "epsilon",
                 "fields"},
    "beltrami": {"kind", "name", "description", "metric", "stream",
                 "eigenvalue"},
    "mcgehee": {"kind", "name", "description", "mu", "x0", "a0", "pr0",
                "pa0", "t_end"},
}
_REQUIRED = {
    "bcontact": {"kind", "name", "surface", "fields"},
    "beltrami": {"kind", "name", "stream", "eigenvalue"},
    "mcgehee": {"kind", "name", "mu"},
}


def _fail(origin, message):
    raise ScenarioError(f"{origin}: {message}")


def _check_number(origin, data, key, lo=None, hi=None):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(origin, f"{key!r} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(origin, f"{key!r} must be finite")
    if lo is not None and not (lo < value):
        _fail(origin, f"{key!r} must be > {lo}, got {value}")
    if hi is not None and not (value < hi):
        _fail(origin, f"{key!r} must be < {hi}, got {value}")
    return value


# Memo bounds.  Neither memo needs invalidation: Expr trees are frozen, the
# compiled frame function is pure, and lru_cache never caches an exception,
# so a string that fails to parse fails again.  Retained memory (tracemalloc,
# parse entries, trees, compiled function and partials): the torus builtin
# ~14 KB, the sphere's four charts ~381 KB, of which a pole disk's derived
# trees are ~185 KB; so a memo full of charts that size retains about
# 32 x 190 KB = 6 MB (larger field strings retain more per chart).
FIELD_MEMO_SIZE = 32  # charts in the ChartFields memo
PARSE_MEMO_SIZE = 4 * FIELD_MEMO_SIZE  # strings: four fields per chart


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse(text, variables):
    return parse(text, variables)


@functools.lru_cache(maxsize=FIELD_MEMO_SIZE)
def _chart_fields(variables, f, beta_u, beta_v, beta_z):
    """The one ChartFields of these strings over ``variables``."""
    return ChartFields(*(_parse(text, variables)
                         for text in (f, beta_u, beta_v, beta_z)))


def _check_expression(origin, text, variables, where):
    if not isinstance(text, str):
        _fail(origin, f"{where} must be an expression string, got {text!r}")
    try:
        _parse(text, variables)
    except ParseError as exc:
        _fail(origin, f"{where}: {exc}")


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: its kind, name, and raw option mapping."""

    kind: str
    name: str
    data: dict
    origin: str

    def option(self, key, default=None):
        return self.data.get(key, default)


def _validate(raw, origin):
    if not isinstance(raw, dict):
        _fail(origin, "top level must be a JSON object")
    kind = raw.get("kind")
    if kind not in _ALLOWED:
        _fail(origin, f"'kind' must be one of {sorted(_ALLOWED)}, "
                      f"got {kind!r}")
    unknown = sorted(set(raw) - _ALLOWED[kind])
    if unknown:
        _fail(origin, f"unknown key {unknown[0]!r} for kind {kind!r}")
    missing = sorted(_REQUIRED[kind] - set(raw))
    if missing:
        _fail(origin, f"missing required key {missing[0]!r}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        _fail(origin, "'name' must be a non-empty string")
    if "/" in name or "\\" in name or name in (".", ".."):
        # the default output directory is runs/<name>
        _fail(origin, f"'name' must name one directory, got {name!r}")
    if not isinstance(raw.get("description", ""), str):
        _fail(origin, "'description' must be a string")

    if kind == "bcontact":
        _validate_bcontact(raw, origin)
    elif kind == "beltrami":
        _validate_beltrami(raw, origin)
    else:
        _validate_mcgehee(raw, origin)
    return Scenario(kind=kind, name=name, data=raw, origin=origin)


def _surface_atlas(surface, epsilon):
    if surface == "torus":
        return TubularChart.torus(epsilon=epsilon)
    return TubularChart.sphere_atlas(epsilon=epsilon)


def _validate_bcontact(raw, origin):
    surface = raw.get("surface")
    if surface not in ("torus", "sphere"):
        _fail(origin, f"'surface' must be 'torus' or 'sphere', got {surface!r}")
    epsilon = 0.5
    if "epsilon" in raw:
        epsilon = _check_number(origin, raw, "epsilon", lo=0.0)
    atlas = _surface_atlas(surface, epsilon)
    fields = raw.get("fields")
    if not isinstance(fields, dict):
        _fail(origin, "'fields' must be an object keyed by chart name")
    expected = set(atlas.charts)
    stray = sorted(set(fields) - expected)
    if stray:
        _fail(origin, f"unknown chart {stray[0]!r} in 'fields' "
                      f"(surface {surface!r} has charts {sorted(expected)})")
    absent = sorted(expected - set(fields))
    if absent:
        _fail(origin, f"missing chart {absent[0]!r} in 'fields'")
    for chart_name, entry in fields.items():
        if not isinstance(entry, dict):
            _fail(origin, f"fields[{chart_name!r}] must be an object")
        stray = sorted(set(entry) - _FIELD_KEYS)
        if stray:
            _fail(origin, f"unknown key {stray[0]!r} in "
                          f"fields[{chart_name!r}]")
        if "f" not in entry:
            _fail(origin, f"fields[{chart_name!r}] is missing 'f'")
        chart = atlas.charts[chart_name]
        for key in sorted(entry):
            _check_expression(origin, entry[key], chart.variables,
                              f"fields[{chart_name!r}][{key!r}]")


def _validate_beltrami(raw, origin):
    _check_expression(origin, raw["stream"], ("u", "v"), "'stream'")
    _check_number(origin, raw, "eigenvalue", lo=0.0)
    metric = raw.get("metric", {})
    if not isinstance(metric, dict):
        _fail(origin, "'metric' must be an object")
    stray = sorted(set(metric) - {"h_uu", "h_uv", "h_vv"})
    if stray:
        _fail(origin, f"unknown key {stray[0]!r} in 'metric'")
    for key in sorted(metric):
        _check_expression(origin, metric[key], ("u", "v"),
                          f"metric[{key!r}]")


def _validate_mcgehee(raw, origin):
    _check_number(origin, raw, "mu", lo=0.0, hi=1.0)
    for key in ("x0", "a0", "pr0", "pa0", "t_end"):
        if key in raw:
            _check_number(origin, raw, key)
    if "x0" in raw and float(raw["x0"]) < 0.0:
        _fail(origin, f"'x0' must be >= 0, got {raw['x0']}")


def load_scenario(source):
    """Load and validate a scenario from a file path or built-in name.

    ``source`` may be a path to a ``.json`` file or one of the names in
    :func:`builtin_names`.  Raises :class:`ScenarioError` with the offending
    file named on any problem: unreadable, not UTF-8, not JSON, or invalid.
    """
    source = str(source)
    if source in builtin_names():
        text = (resources.files("bcontactlab") / "scenarios"
                / f"{source}.json").read_text()
        origin = f"built-in scenario {source!r}"
    else:
        path = Path(source)
        origin = str(path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            _fail(source, "no such file and not a built-in scenario "
                          f"(built-ins: {', '.join(builtin_names())})")
        except (OSError, UnicodeDecodeError) as exc:
            _fail(origin, f"cannot read the file ({exc})")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(origin, f"invalid JSON ({exc})")
    return _validate(raw, origin)


def scenario_form(scenario):
    """Build the :class:`BContactForm` of a ``bcontact`` scenario; charts
    with the strings of an earlier scenario share its :class:`ChartFields`."""
    if scenario.kind != "bcontact":
        raise ScenarioError(
            f"{scenario.origin}: expected a 'bcontact' scenario, "
            f"got kind {scenario.kind!r}")
    epsilon = float(scenario.option("epsilon", 0.5))
    atlas = _surface_atlas(scenario.data["surface"], epsilon)
    fields = {}
    for chart_name, entry in scenario.data["fields"].items():
        fields[chart_name] = _chart_fields(
            atlas.charts[chart_name].variables, entry["f"],
            *(entry.get(key, "0") for key in ("beta_u", "beta_v", "beta_z")))
    return BContactForm(atlas, fields)

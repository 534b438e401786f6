"""Run the builtins and the benchmark's catalogues, one directory each.

Usage: python3 tools/run_catalogue.py OUT [ID ...]

The ids are the four builtin scenario names, the ids of the 426
scenarios of the ``torus-fan``, ``sphere-grid`` and ``three-body``
catalogues of ``perfbench/workloads.py`` (bcontact, Beltrami and
three-body; that module is only imported), and ten ids of this tool's
own: four ``Z_FORMS``, the torus builtin with one field replaced, so that
a frame reads z, which no catalogue form does, two ``MCGEHEE_FORMS``,
the three-body builtin run backward and started on {x = 0}, which no
catalogue entry does, two ``SEED_RUNS``, the torus builtin with saddle
fans larger than any catalogue entry's, whose censuses hold 264 and 1,032
seeds, two ``BELTRAMI_FORMS``, the Beltrami builtin on a metric with
√det h ≠ 1, which no catalogue stream's metric has, and seven
``SPHERE_FAMILY`` ids ``sphere-t<t>``, the sphere builtin with
f_t = Z + t(x² − y²), whose poles turn from extrema into saddles at
t = 1/2, which no catalogue form crosses.  Each id runs
``bcontactlab all`` in this process, through ``cli.main``, with the
catalogue entry's own arguments (``--seeds``, ``--grid`` or none), into
``OUT/<id>``; without ids, all 447 run.  One line per run,
``<id> <exit status>``, is printed and written to
``OUT/exit_status.txt``.  Two such directories, made from two
checkouts, are the input of ``tools/compare_runs.py``.  It runs the checkout it sits
in: the package is imported from the ``src`` directory beside this one.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bcontactlab.cli import main as cli_main  # noqa: E402
from bcontactlab.scenarios import builtin_names, load_scenario  # noqa: E402
from perfbench import workloads  # noqa: E402

WORKLOADS = ("torus-fan", "sphere-grid", "three-body")
# id -> (field of the torus builtin's one chart, its replacement)
Z_FORMS = {
    "torus-z-beta_z-0.1cos": ("beta_z", "0.1*cos(u)"),
    "torus-z-beta_z-1.0cos": ("beta_z", "1.0*cos(u)"),
    "torus-z-beta_u": ("beta_u", "sin(v) + 0.3*z*cos(u)"),
    "torus-z-beta_z-sincos": ("beta_z", "0.3*sin(u)*cos(v)"),
}
# id -> options replaced in the three-body builtin: a backward oracle
# window, and a run on {x = 0} that the periodicity check follows
MCGEHEE_FORMS = {
    "mcgehee-backward": {"t_end": -300.0},
    "mcgehee-x0-zero": {"x0": 0.0, "pa0": 1.0, "t_end": 20.0},
}
# id -> the torus builtin's ``--seeds``
SEED_RUNS = {"torus-seeds-64": 64, "torus-seeds-256": 256}
# id -> (stream, h_uu) replaced in the Beltrami builtin: an eigenfunction
# of a constant metric (rescale 2), and a stream that fails the Laplace
# check on a metric that varies
BELTRAMI_FORMS = {
    "beltrami-metric-4": ("cos(2*u) + 0.5*cos(v)", "4"),
    "beltrami-metric-cosv": ("cos(u) + 0.5*cos(v)", "1 + 0.2*cos(v)"),
}

# the t of the ``sphere-t<t>`` ids: below 1/2 the poles are the only critical
# points, both extrema; above it they are saddles beside four extrema
SPHERE_FAMILY = (0.25, 0.45, 0.501, 0.51, 0.55, 0.75, 1.0)


def sphere_family(t):
    """The sphere builtin with f_t = Z + t(x² − y²) and the builtin's β: the
    angular charts add t sin²θ cos 2φ, the pole disks t S (u² − v²), where S
    is the shipped series of sin²√ρ/ρ, the bracket of the pole ``beta_v``."""
    data = copy.deepcopy(load_scenario("sphere").data)
    data["name"] = f"sphere-t{t}"
    fields = data["fields"]
    series = fields["north-pole"]["beta_v"].removeprefix("u*")
    for chart, term in (("north", "sin(theta)^2*cos(2*phi)"),
                        ("south", "sin(theta)^2*cos(2*phi)"),
                        ("north-pole", f"{series}*(u^2 - v^2)"),
                        ("south-pole", f"{series}*(u^2 - v^2)")):
        fields[chart]["f"] += f" + {t}*{term}"
    return data


def entries():
    """Every id, with the scenario it runs and its extra arguments: the
    builtins by name, the catalogue entries, ``Z_FORMS``,
    ``MCGEHEE_FORMS``, ``BELTRAMI_FORMS`` and ``SPHERE_FAMILY`` as scenario
    dicts, and ``SEED_RUNS``."""
    found = {name: (name, []) for name in builtin_names()}
    for workload in WORKLOADS:
        for entry in workloads.catalogue(workload):
            found[entry["id"]] = (entry["scenario"], entry["args"])
    for run_id, (key, text) in Z_FORMS.items():
        data = copy.deepcopy(load_scenario("torus").data)
        data["name"] = run_id
        data["fields"]["torus"][key] = text
        found[run_id] = (data, [])
    for run_id, options in MCGEHEE_FORMS.items():
        data = {**load_scenario("mcgehee").data, "name": run_id, **options}
        found[run_id] = (data, [])
    for run_id, seeds in SEED_RUNS.items():
        found[run_id] = ("torus", ["--seeds", str(seeds)])
    for run_id, (stream, h_uu) in BELTRAMI_FORMS.items():
        data = copy.deepcopy(load_scenario("beltrami").data)
        data.update(name=run_id, stream=stream)
        data["metric"]["h_uu"] = h_uu
        found[run_id] = (data, [])
    for t in SPHERE_FAMILY:
        data = sphere_family(t)
        found[data["name"]] = (data, [])
    return found


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python3 tools/run_catalogue.py OUT [ID ...]",
              file=sys.stderr)
        return 2
    out, ids = Path(args[0]), args[1:]
    known = entries()
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown id(s): {' '.join(unknown)}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        for run_id in ids or list(known):
            scenario, extra = known[run_id]
            if isinstance(scenario, dict):
                path = Path(scratch) / f"{run_id}.json"
                path.write_text(json.dumps(scenario))
                scenario = str(path)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli_main(["all", "--scenario", scenario,
                                   "--out", str(out / run_id), *extra])
            lines.append(f"{run_id} {status}")
            print(lines[-1], flush=True)
    (out / "exit_status.txt").write_text("".join(f"{s}\n" for s in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the builtins and the benchmark's catalogues, one directory each.

Usage: python3 tools/run_catalogue.py OUT [ID ...]

The ids are the four builtin scenario names, the ids of the 426
scenarios of the ``torus-fan``, ``sphere-grid`` and ``three-body``
catalogues of ``perfbench/workloads.py`` (bcontact, Beltrami and
three-body; that module is only imported), and six ids of this tool's
own: four ``Z_FORMS``, the torus builtin with one field replaced, so that
a frame reads z, which no catalogue form does, and two ``MCGEHEE_FORMS``,
the three-body builtin run backward and started on {x = 0}, which no
catalogue entry does.  Each id runs ``bcontactlab all`` in this process,
through ``cli.main``, with the catalogue entry's own arguments
(``--seeds``, ``--grid`` or none), into ``OUT/<id>``; without ids, all
436 run.  One line per run, ``<id> <exit status>``, is printed and
written to ``OUT/exit_status.txt``.  Two such directories, made from two
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


def entries():
    """Every id, with the scenario it runs and its extra arguments: the
    builtins by name, the catalogue entries, ``Z_FORMS`` and
    ``MCGEHEE_FORMS`` as scenario dicts."""
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

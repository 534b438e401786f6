"""Run the builtins and the benchmark's catalogues, one directory each.

Usage: python3 tools/run_catalogue.py OUT [ID ...]

The ids are the four builtin scenario names and the ids of the 426
scenarios of the ``torus-fan``, ``sphere-grid`` and ``three-body``
catalogues of ``perfbench/workloads.py`` (bcontact, Beltrami and
three-body; that module is only imported).  Each id runs ``bcontactlab
all`` in this process, through ``cli.main``, with the catalogue entry's
own arguments (``--seeds``, ``--grid`` or none), into ``OUT/<id>``;
without ids, all 430 run.  One line per
run, ``<id> <exit status>``, is printed and written to
``OUT/exit_status.txt``.  Two such directories, made from two checkouts,
are the input of ``tools/compare_runs.py``.  It runs the checkout it sits
in: the package is imported from the ``src`` directory beside this one.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from bcontactlab.cli import main as cli_main  # noqa: E402
from bcontactlab.scenarios import builtin_names  # noqa: E402
from perfbench import workloads  # noqa: E402

WORKLOADS = ("torus-fan", "sphere-grid", "three-body")


def entries():
    """Every id, with the scenario it runs and its extra arguments: the
    builtins by name, the catalogue entries as scenario dicts."""
    found = {name: (name, []) for name in builtin_names()}
    for workload in WORKLOADS:
        for entry in workloads.catalogue(workload):
            found[entry["id"]] = (entry["scenario"], entry["args"])
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

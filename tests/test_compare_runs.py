"""tools/compare_runs.py: the report-and-CSV oracle for refactors."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import bcontactlab
from bcontactlab import scenarios
from bcontactlab.cli import main
from bcontactlab.runner import run

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"


def _compare(a, b):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_compare_runs_passes_two_runs_and_fails_one_changed_byte(tmp_path):
    a, b = tmp_path / "a" / "torus", tmp_path / "b" / "nested" / "torus"
    assert run("torus", "all", a).exit_status == 0
    assert run("torus", "all", b).exit_status == 0
    same = _compare(a, b)
    assert same.returncode == 0, same.stdout
    assert same.stdout.startswith("0 of ")

    c = tmp_path / "c"
    shutil.copytree(b, c)
    csv = c / "orbits.csv"
    data = bytearray(csv.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    csv.write_bytes(bytes(data))
    changed = _compare(a, c)
    assert changed.returncode == 1
    assert changed.stdout.splitlines()[0] == f"{csv.name}: differs"


def test_runs_on_a_warm_field_memo_equal_a_fresh_process(tmp_path):
    # cold and warm in this process, then cold again in a new interpreter
    scenarios._chart_fields.cache_clear()
    scenarios._parse.cache_clear()
    src = str(Path(bcontactlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    for name in ("torus", "sphere"):
        for side in ("cold", "warm"):
            argv = ["all", "--scenario", name, "--out", str(tmp_path / side / name)]
            assert main(argv) == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "bcontactlab.cli", "all", "--scenario",
             name, "--out", str(tmp_path / "fresh" / name)],
            env=env, capture_output=True, text=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
    for a, b in (("cold", "warm"), ("cold", "fresh"), ("warm", "fresh")):
        same = _compare(tmp_path / a, tmp_path / b)
        assert same.returncode == 0, same.stdout
        assert same.stdout.startswith("0 of ")


def _tree(root, u, weight, label):
    run = root / "run"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps(
        {"timing": {"total_s": weight}, "counts": [3, weight], "ok": True}))
    (run / "orbits.csv").write_text(f"u,v,label\n{u},-2.0,{label}\n")
    (run / "notes.txt").write_text(label)


def test_shift_names_the_worst_numeric_difference(tmp_path):
    _tree(tmp_path / "a", 0.5, 4.0, "x")
    _tree(tmp_path / "b", 0.5000001, 4.0, "x")
    _tree(tmp_path / "c", 0.5, 5.0, "y")
    (tmp_path / "c" / "run" / "extra.csv").write_text("u\n1\n")
    shifted = _compare(tmp_path / "a", tmp_path / "c")
    assert shifted.returncode == 1
    assert shifted.stdout.splitlines() == [
        f"run/extra.csv: only in {tmp_path / 'c'}",
        "run/notes.txt: differs",
        "run/orbits.csv: differs",
        "  no number differs",
        "run/report.json: differs",
        "  worst shift abs 1 at report.counts[1], rel 0.2 at report.counts[1]",
        "4 of 4 files differ",
        "over all files: worst shift abs 1 at run/report.json "
        "report.counts[1], rel 0.2 at run/report.json report.counts[1]",
    ]
    csv_shift = _compare(tmp_path / "a", tmp_path / "b")
    assert csv_shift.stdout.splitlines()[1] == (
        "  worst shift abs 1e-07 at rows[0].u, rel 2e-07 at rows[0].u")

    same = _compare(tmp_path / "a", tmp_path / "a")
    assert same.returncode == 0
    assert same.stdout == "0 of 3 files differ\n"

"""tools/run_catalogue.py: the runs that tools/compare_runs.py compares."""
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
# id -> exit status: a builtin, a bcontact catalogue entry, a three-body
# one, a tool-local form whose frame reads z, a tool-local three-body run on
# {x = 0}, a tool-local torus run with 64-seed fans, the two tool-local
# Beltrami metrics with √det h ≠ 1, the second failing its Laplace check,
# and a tool-local sphere form past the wall t = 1/2, with pole saddles
IDS = {"beltrami": 0, "torus-a0.10-fan16": 0, "three-body-m0.05-x0.12-k0": 0,
       "torus-z-beta_u": 0, "mcgehee-x0-zero": 0, "torus-seeds-64": 0,
       "beltrami-metric-4": 0, "beltrami-metric-cosv": 2, "sphere-t0.75": 0}


def _tool(name, *args):
    return subprocess.run([sys.executable, str(TOOLS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_two_catalogue_runs_compare_equal(tmp_path):
    for side in ("a", "b"):
        done = _tool("run_catalogue.py", tmp_path / side, *IDS)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [f"{i} {status}"
                                            for i, status in IDS.items()]
        assert (tmp_path / side / "exit_status.txt").read_text() == done.stdout
        for run_id in IDS:
            assert (tmp_path / side / run_id / "report.json").is_file()
    assert (tmp_path / "a" / "torus-a0.10-fan16" / "orbits.csv").is_file()
    assert (tmp_path / "a" / "three-body-m0.05-x0.12-k0"
            / "trajectory.csv").is_file()
    same = _tool("compare_runs.py", tmp_path / "a", tmp_path / "b")
    assert same.returncode == 0, same.stdout
    assert same.stdout.startswith("0 of ")


def test_an_unknown_id_is_refused(tmp_path):
    done = _tool("run_catalogue.py", tmp_path, "no-such-id")
    assert done.returncode == 2
    assert "no-such-id" in done.stderr
    assert not any(tmp_path.iterdir())

"""tools/rk45_step_cost.py: the timing of an RK45 step by lane count runs."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "rk45_step_cost.py"


def test_step_cost_runs_and_reports_every_lane_count():
    done = subprocess.run([sys.executable, str(TOOL), "--repeat", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "RK45 step cost outside the RHS, linear 4-D system"
    assert lines[1].split() == ["lanes", "us/step", "us/lane-step"]
    rows = [line.split() for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [1, 4, 16, 64]
    assert all(len(row) == 3 and min(map(float, row[1:])) > 0
               for row in rows)

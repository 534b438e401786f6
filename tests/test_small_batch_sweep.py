"""tools/small_batch_sweep.py: the timing of the two orbit RHS paths runs."""
import subprocess
import sys
from pathlib import Path

from bcontactlab.orbits import SMALL_BATCH

TOOL = Path(__file__).resolve().parents[1] / "tools" / "small_batch_sweep.py"


def test_sweep_runs_and_reports_every_chart():
    done = subprocess.run([sys.executable, str(TOOL), "--repeat", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"current SMALL_BATCH = {SMALL_BATCH}"
    rows = [line.split() for line in lines[3:24]]
    assert [int(row[0]) for row in rows] == list(range(4, 25))
    assert all(len(row) == 4 and min(map(float, row[1:])) > 0 for row in rows)
    assert [line.split(":")[0] for line in lines[24:]] == [
        "torus", "north", "north-pole"]
    assert all("break-even at" in line for line in lines[24:])

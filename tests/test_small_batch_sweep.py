"""tools/small_batch_sweep.py: the timing of the two orbit RHS paths runs."""
import re
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
    for line, row in zip(lines[24:], zip(*(row[1:] for row in rows))):
        # the first lane count whose ratio is at most 1, or none; a ratio
        # above 1 prints as 1.00 or more, one at most 1 as 1.00 or less
        even = re.fullmatch(r"[a-z-]+: break-even at (\d+) lanes", line)
        if even is None:
            assert re.fullmatch(r"[a-z-]+: no break-even up to 24 lanes",
                                line)
            assert all(float(r) >= 1.0 for r in row)
        else:
            n = int(even[1])
            assert float(row[n - 4]) <= 1.0
            assert all(float(r) >= 1.0 for r in row[:n - 4])

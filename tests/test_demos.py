"""The shipped demos and the README quick tour run to completion.

Each runs in a fresh interpreter, from a scratch working directory, with
only the package source on the path, the way a reader would run it.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _quick_tour():
    """The README's "Quick tour" code block and the output it promises."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    promised = code.rstrip().splitlines()[-1].lstrip("# ")
    return code, promised


def test_the_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "beltrami_eigenfields.py", "sphere_escape_orbits.py",
        "three_body_infinity.py", "torus_infinite_family.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    done = _run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_runs(tmp_path):
    code, promised = _quick_tour()
    done = _run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == promised

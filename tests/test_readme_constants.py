"""README's "Tuning constants" table matches the modules it names."""
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|")


def test_every_tabled_constant_has_its_module_value():
    section = README.read_text().split("\n## Tuning constants\n", 1)[1]
    lines = [line for line in section.split("\n## ", 1)[0].splitlines()
             if line.startswith("| `")]
    rows = [ROW.match(line) for line in lines]
    assert len(rows) >= 40 and all(rows), lines
    assert len({row.group(1, 2) for row in rows}) == len(rows)
    for row in rows:
        name, module, value = row.groups()
        actual = getattr(importlib.import_module(f"bcontactlab.{module}"),
                         name)
        assert actual == eval(value, {"__builtins__": {}}), (module, name)

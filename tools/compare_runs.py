"""Compare two trees of run outputs: the refactor oracle.

Usage: python3 tools/compare_runs.py A B

A and B are directories holding ``bcontactlab`` outputs at any depth (one
run, or one sub-directory per scenario).  Every ``report.json`` is compared
as JSON with its ``timing`` subtree and ``scenario.origin`` (the path the
scenario was loaded from) dropped; every other file, the CSVs included, is
compared byte for byte.  Differing files and files present on one side only
are listed; the exit status is 1 if there is any, else 0.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def _report(path):
    """A report's content without its run-dependent parts."""
    report = json.loads(path.read_text())
    report.pop("timing", None)
    if isinstance(report.get("scenario"), dict):
        report["scenario"].pop("origin", None)
    return report


def _same(a, b):
    if a.name == "report.json":
        return _report(a) == _report(b)
    return a.read_bytes() == b.read_bytes()


def compare(a, b):
    """Sorted list of (relative path, reason) for every difference."""
    a, b = Path(a), Path(b)
    files_a, files_b = _files(a), _files(b)
    diffs = [(name, f"only in {a}") for name in files_a - files_b]
    diffs += [(name, f"only in {b}") for name in files_b - files_a]
    diffs += [(name, "differs") for name in files_a & files_b
              if not _same(a / name, b / name)]
    return sorted(diffs)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/compare_runs.py A B", file=sys.stderr)
        return 2
    for root in args:
        if not Path(root).is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    diffs = compare(*args)
    for name, reason in diffs:
        print(f"{name}: {reason}")
    n = len(_files(Path(args[0])) | _files(Path(args[1])))
    print(f"{len(diffs)} of {n} files differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two trees of run outputs: the refactor oracle.

Usage: python3 tools/compare_runs.py A B

A and B are directories holding ``bcontactlab`` outputs at any depth (one
run, or one sub-directory per scenario).  Every ``report.json`` is compared
as JSON with its ``timing`` subtree and ``scenario.origin`` (the path the
scenario was loaded from) dropped; every other file, the CSVs included, is
compared byte for byte.  Differing files and files present on one side only
are listed; the exit status is 1 if there is any, else 0.

Each differing report or CSV is followed by its worst numeric shift: the
largest absolute difference |a - b| and the largest relative difference
|a - b| / max(|a|, |b|) between two numbers at the same place (the same
JSON path, or the same CSV row and column), each with its place.  When
any file differs, a last line gives the worst over all files.  Places that
hold a number on one side only are not counted.
"""
from __future__ import annotations

import csv
import json
import math
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


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pairs(a, b, place):
    """(place, a, b) for every pair of numbers at the same place."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a:
            if key in b:
                yield from _pairs(a[key], b[key], f"{place}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _pairs(x, y, f"{place}[{i}]")
    elif _is_number(a) and _is_number(b):
        yield place, float(a), float(b)


def _cell(text):
    try:
        return float(text)
    except (TypeError, ValueError):  # text, or a short or long row's filler
        return text


def _rows(path):
    """A CSV's rows as dicts by column name, numeric cells as floats."""
    with path.open(newline="") as f:
        return [{key: _cell(text) for key, text in row.items()}
                for row in csv.DictReader(f)]


def _content(path):
    """A report, or a CSV's rows, with its numbers; None for other files."""
    if path.name == "report.json":
        return _report(path)
    if path.suffix == ".csv":
        return _rows(path)
    return None


def _shifts(a, b):
    """(place, absolute, relative) of each pair of unequal numbers at the
    same place of two reports or two CSV tables; NaN equals NaN."""
    place = "report" if isinstance(a, dict) else "rows"
    for place, x, y in _pairs(a, b, place):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap = abs(x - y)
        if not math.isfinite(gap):  # a NaN or an infinity on one side
            yield place, math.inf, math.inf
        else:
            yield place, gap, gap / max(abs(x), abs(y))


def _worse(worst, shifts, prefix=""):
    """Fold ``(place, abs, rel)`` triples into ``worst``, which maps
    ``"abs"`` and ``"rel"`` to the largest (value, place) so far."""
    for place, gap, rel in shifts:
        for key, value in (("abs", gap), ("rel", rel)):
            if key not in worst or value > worst[key][0]:
                worst[key] = (value, prefix + place)
    return worst


def _shift_line(worst):
    if not worst:
        return "no number differs"
    return (f"worst shift abs {worst['abs'][0]:.3g} at {worst['abs'][1]}, "
            f"rel {worst['rel'][0]:.3g} at {worst['rel'][1]}")


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
    overall = {}
    for name, reason in diffs:
        print(f"{name}: {reason}")
        if reason != "differs":
            continue
        a, b = (_content(Path(root) / name) for root in args)
        if a is not None:
            shifts = list(_shifts(a, b))
            print(f"  {_shift_line(_worse({}, shifts))}")
            _worse(overall, shifts, f"{name} ")
    n = len(_files(Path(args[0])) | _files(Path(args[1])))
    print(f"{len(diffs)} of {n} files differ")
    if diffs:
        print(f"over all files: {_shift_line(overall)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

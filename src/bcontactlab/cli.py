"""Command-line entry point.

    bcontactlab <subcommand> --scenario NAME-OR-PATH [--out DIR]
                 [--grid N,N,N] [--seeds K]

Subcommands ``validate``, ``critical``, ``trace`` and ``census`` run the
surface pipeline up to the named stage; ``beltrami`` and ``mcgehee`` run
those scenario kinds; ``all`` runs whatever pipeline matches the
scenario's kind.  Exit status: 0 all checks passed, 2 at least one check
failed, 1 the pipeline itself errored (bad scenario, violated hypothesis,
integration breakdown).  No option moves a pass/fail threshold: each is
a module constant, listed in README's "Tuning constants".
"""
from __future__ import annotations

import argparse
import functools
import sys

from .runner import run
from .scenarios import ScenarioError, builtin_names


def grid(text):  # run() judges the counts; argparse reports other text
    return tuple(int(p) for p in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bcontactlab",
        description="Escape-orbit census and related pipelines on "
                    "b-contact surfaces.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in (
            ("validate", "check the contact condition and field residuals"),
            ("critical", "locate critical points and their spectra"),
            ("trace", "trace invariant-manifold orbits from every seed"),
            ("census", "trace, deduplicate, and compare with the bound"),
            ("beltrami", "run the area-preserving eigenfield checks"),
            ("mcgehee", "integrate the inverted-radius three-body problem"),
            ("all", "run the full pipeline for the scenario's kind")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True,
                       help="scenario file path or built-in name "
                            f"({', '.join(builtin_names())})")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="artifact directory (default: runs/<name>)")
        p.add_argument("--grid", type=grid, default=None, metavar="N,N,N",
                       help="validation grid, at least 2,2,1, odd z count")
        p.add_argument("--seeds", type=int, default=None, metavar="K",
                       help="even fan size per hyperbolic critical point")
    return parser


# main's parser: built on the first call, then reused for every run in the
# process (parse_args leaves a parser as it found it)
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot means "verdict failed"
        # here, so fold bad usage into the operational-error status
        return 0 if exc.code == 0 else 1
    try:
        result = run(args.scenario, args.subcommand, args.out,
                     grid=args.grid, seeds=args.seeds)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # seeds or a grid that run() rejects
        print(f"error: --{exc}", file=sys.stderr)
        return 1

    report = result.report
    verdict = report["verdict"]
    if "error" in report:
        err = report["error"]
        print(f"error: {err['type']}: {err['message']}", file=sys.stderr)
    for failure in verdict["failures"]:
        print(f"failed check: {failure}")
    print(f"report: {result.out_dir / 'report.json'}")
    n_extra = len(result.artifacts) - 1
    if n_extra:
        print(f"artifacts: {n_extra} file(s) in {result.out_dir}")
    print("PASS" if verdict["passed"] else "FAIL")
    return result.exit_status


if __name__ == "__main__":
    sys.exit(main())

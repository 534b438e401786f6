"""bcontactlab benchmark: seeded scenario workloads through the real CLI.

    python3 perfbench/run.py --workload torus-fan --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  The scenarios are generated from the seed
(``workloads.py``), written as plain scenario JSON, and run through
``bcontactlab.cli.main`` ("all" subcommand) by worker processes started
here with BLAS/OpenMP threads set to 1.  Every run's exit status and report
fingerprint are checked against ``golden.json``.

``--trace 0`` measures the end-to-end metrics: two closed-loop clients (at
most ``nproc``) plus fresh interpreters for the set-up time.  ``--trace 1``
is a separate run that wraps each layer's public functions (``tracer.py``)
and reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
human-readable record goes to the lines before it and, with provenance,
to ``.perfbench_work/<workload>-seed<seed>-trace<t>/record.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_BUDGET_S = 40.0      # per scenario; an overrun is a failed run
# Reference time of worker.Calibration: its usual value on the 2-CPU Xeon the
# benchmark was built on.  End-to-end times are reported in reference
# seconds, measured seconds * REFERENCE_CALIB_S / calibration (for a
# scenario the mean of its client's calibrations just before and just after
# it; for a set-up probe the one it takes after its import), because that
# host's speed drifts by a third over minutes.
REFERENCE_CALIB_S = 0.0107
SETUP_PROBES = 5         # fresh interpreters per run; setup_s is their median
TRACE_SCENARIOS = {"torus-fan": 3, "sphere-grid": 3, "three-body": 4}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"scenario_s.p50": "s", "scenario_s.tail": "s",
                    "throughput": "work/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def write_scenarios(entries, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        path = directory / f"{entry['id']}.json"
        path.write_text(json.dumps(entry["scenario"], indent=2) + "\n")
        entry["path"] = str(path)


def run_workers(jobs, work, timeout_s):
    """Start one worker per job (all at once), wait, and return their results."""
    procs = []
    for k, job in enumerate(jobs):
        job_path = work / f"job{k}.json"
        job_path.write_text(json.dumps(job))
        log = open(work / f"worker{k}.log", "w")
        procs.append((subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "job", str(job_path)],
            stdout=subprocess.DEVNULL, stderr=log, env=worker_env(),
            cwd=str(ROOT)), log))
    deadline = time.monotonic() + timeout_s
    results = []
    for (proc, log), job in zip(procs, jobs):
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        log.close()
        result_path = Path(job["result"])
        results.append(json.loads(result_path.read_text())
                       if proc.returncode == 0 and result_path.is_file()
                       else None)
    return results


def setup_times(scenario_path, n, work):
    times = []
    for _ in range(n):
        try:
            out = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "setup",
                 scenario_path], capture_output=True, text=True,
                env=worker_env(), cwd=str(ROOT), timeout=20)
        except subprocess.TimeoutExpired:
            (work / "setup.log").write_text("set-up probe took over 20 s\n")
            return None
        if out.returncode != 0:
            (work / "setup.log").write_text(out.stderr)
            return None
        times.append(json.loads(out.stdout.splitlines()[-1]))
    return times


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile that
    has at least 10 samples beyond it; the maximum for 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(args, deck, golden, work):
    n_clients = 1 if args.smoke else min(2, os.cpu_count() or 1)
    probes = setup_times(deck[0]["path"], 1 if args.smoke else SETUP_PROBES,
                         work)
    jobs = [{"mode": "run", "workload": args.workload, "src": str(ROOT / "src"),
             "entries": deck[w::n_clients], "cycle": True,
             "seconds": args.seconds, "budget_s": RUN_BUDGET_S,
             "golden": golden, "out_dir": str(work / f"out{w}"),
             "result": str(work / f"result{w}.json")}
            for w in range(n_clients)]
    results = run_workers(jobs, work, args.seconds + RUN_BUDGET_S + 30)
    samples = [s for r in results if r for s in r["samples"]]
    problems = [f"worker {k} ended without a result (see worker{k}.log)"
                for k, r in enumerate(results) if r is None]
    if probes is None:
        problems.append("set-up probe failed (see setup.log)")
    failed = [s for s in samples if not s["ok"]]
    record = {"samples": samples, "clients": n_clients,
              "setup_probes": probes, "problems": problems,
              "versions": next((r["versions"] for r in results if r), None)}
    if not samples or probes is None:
        return record, None, len(samples) or 1, len(failed) or 1
    speeds = [REFERENCE_CALIB_S / statistics.fmean(s["calib_s"])
              for s in samples]
    walls = [s["wall_s"] * k for s, k in zip(samples, speeds)]
    setups = [p["setup_s"] * REFERENCE_CALIB_S / p["calib_s"] for p in probes]
    work_done = sum(golden[s["id"]]["work"] for s in samples if s["ok"])
    t_value, t_pct, t_beyond = tail(walls)
    metrics = {
        "scenario_s.p50": statistics.median(walls),
        "scenario_s.tail": t_value,
        "throughput": work_done / sum(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results if r),
    }
    record["notes"] = {
        "calibration": f"reference seconds = seconds * {1e3 * REFERENCE_CALIB_S:g}"
                       f" ms / calibration; median factor "
                       f"{statistics.median(speeds):.4f}",
        "scenario_s.p50": f"median of {len(walls)} runs",
        "scenario_s.tail": f"p{t_pct:.1f} of {len(walls)} runs, "
                           f"{t_beyond} beyond it",
        "throughput": f"{workloads.WORK_UNIT[args.workload]} per reference "
                      f"second of scenario wall time ({work_done:g} in "
                      f"{sum(walls):.2f} s)",
        "setup_s": f"median of {len(setups)} fresh interpreters: import "
                   f"bcontactlab.cli, load and build {deck[0]['id']}",
        "peak_rss_mb": f"largest peak RSS of {n_clients} client process(es)"
                       ", less the calibration data they hold",
        "fail_ratio": f"{len(failed) / len(samples):g} ({len(failed)} of "
                      f"{len(samples)} runs)",
    }
    return record, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, \
        len(samples), len(failed) + bool(problems)


def per_layer(args, deck, golden, work):
    job = {"mode": "trace", "workload": args.workload, "src": str(ROOT / "src"),
           "entries": deck[:TRACE_SCENARIOS[args.workload]], "cycle": False,
           "seconds": args.seconds, "budget_s": RUN_BUDGET_S, "golden": golden,
           "out_dir": str(work / "out0"), "result": str(work / "result0.json"),
           "spans": str(work / "spans.npz")}
    (result,) = run_workers([job], work, args.seconds + 100)
    if result is None:
        return ({"problems": ["trace worker ended without a result "
                              "(see worker0.log)"]}, None, 1, 1)
    passes = result["passes"]
    samples = [s for p in passes for s in p["plain"] + p["traced"]]
    failed = [s for s in samples if not s["ok"]]
    problems = []
    first = passes[0]
    for p in passes[1:]:
        if (p["counts"] != first["counts"]
                or {k: v["calls"] for k, v in p["layers"].items()}
                != {k: v["calls"] for k, v in first["layers"].items()}):
            problems.append("deterministic counts differ between traced passes")
    metrics = {}
    for p in passes:
        for name, value in layer_metrics(p).items():
            metrics.setdefault(name, []).append(value)
    rec = first["reconcile"]
    if abs(rec["self_sum_s"] - rec["root_s"]) > 1e-3 * rec["root_s"] \
            or rec["min_self_s"] < -1e-6:
        problems.append(f"span self times do not reconcile: {rec}")
    record = {"samples": samples, "passes": len(passes),
              "scenarios": [e["id"] for e in job["entries"]],
              "counts": first["counts"], "reconcile": rec,
              "problems": problems, "versions": result["versions"]}
    return record, {k: (statistics.median(v), layer_unit(k))
                    for k, v in metrics.items()}, \
        len(samples), len(failed) + bool(problems)


def layer_unit(name):
    if name.endswith(("us_per_call", "us_per_step")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("ratio", "overhead", "share", "per_point")):
        return "ratio"
    return "count"


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(p):
    """Per-layer metrics of one traced pass (0 where a layer did not run)."""
    layers, counts = p["layers"], p["counts"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def total(names, key="total_s"):
        return sum(get(n, key) for n in names)

    from tracer import BELTRAMI_SPANS, VALIDATE_SPANS

    steps = counts.get("rk45.n_steps", 0) + counts.get("rk45.n_rejected", 0)
    root_s = p["reconcile"]["root_s"]
    plain = sum(s["wall_s"] for s in p["plain"])
    traced = sum(s["wall_s"] for s in p["traced"])
    m = {
        "scenarios.load_s": total(["scenarios.load", "scenarios.build"],
                                  "self_s"),
        "expressions.evaluate.calls": get("expressions.evaluate", "calls"),
        "expressions.evaluate.points": get("expressions.evaluate", "points"),
        "expressions.evaluate.self_s": get("expressions.evaluate", "self_s"),
        "expressions.evaluate.us_per_call": 1e6 * _ratio(
            get("expressions.evaluate", "self_s"),
            get("expressions.evaluate", "calls")),
        "contact.validate_s": total(VALIDATE_SPANS),
        "contact.validate.evals_per_point": _ratio(
            counts.get("contact.validate.frame_points", 0),
            counts.get("contact.validate.distinct_points", 0)),
        "critical.find_s": get("critical.find", "total_s"),
        "critical.stability_s": get("critical.stability", "total_s"),
        "critical.points": counts.get("critical.points", 0),
        "rk45.integrate.calls": get("rk45.integrate", "calls"),
        "rk45.self_s": get("rk45.integrate", "self_s"),
        "rk45.rhs_s": get("rk45.rhs", "total_s"),
        "rk45.event_s": get("rk45.event", "total_s"),
        "rk45.n_fev": counts.get("rk45.n_fev", 0),
        "rk45.n_steps": counts.get("rk45.n_steps", 0),
        "rk45.n_rejected": counts.get("rk45.n_rejected", 0),
        "rk45.accept_ratio": _ratio(counts.get("rk45.n_steps", 0), steps),
        "rk45.overhead_us_per_step": 1e6 * _ratio(
            get("rk45.integrate", "self_s"), steps),
        "orbits.trace_s": get("orbits.trace", "self_s"),
        "orbits.census_s": get("orbits.census", "self_s"),
        "orbits.seeds": counts.get("orbits.seeds", 0),
        "orbits.distinct": counts.get("orbits.distinct", 0),
        "orbits.limits_to_ratio": _ratio(counts.get("orbits.limits_to", 0),
                                         counts.get("orbits.seeds", 0)),
        "beltrami_s": total(BELTRAMI_SPANS),
        "mcgehee.integrate_s": get("mcgehee.integrate", "self_s"),
        "mcgehee.oracle_s": get("mcgehee.oracle", "self_s"),
        "runner.self_s": get("runner.main", "self_s"),
        "runner.write_report_s": get("runner.write_report", "total_s"),
        "runner.artifact_bytes": counts["runner.artifact_bytes"],
        "runner.artifact_files": counts["runner.artifact_files"],
        "trace.overhead": _ratio(traced, plain),
        "trace.runner_share": _ratio(get("runner.main", "self_s"), root_s),
    }
    for layer in ("contact.frame_values", "contact.components"):
        for key in ("calls", "points", "self_s"):
            m[f"{layer}.{key}"] = get(layer, key)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenarios, one client, one set-up probe")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bcontactlab" / "cli.py").is_file():
        print(f"error: no bcontactlab sources under {ROOT / 'src'}; run from "
              "the root of a bcontactlab checkout", file=sys.stderr)
        return 2
    golden_all = json.loads((HERE / "golden.json").read_text())
    golden = golden_all["smoke" if args.smoke else "workloads"][args.workload]
    work = ROOT / ".perfbench_work" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    deck = workloads.deck(args.workload, args.seed, args.smoke)
    write_scenarios(deck, work / "scenarios")

    measure = per_layer if args.trace else end_to_end
    record, metrics, attempted, failed = measure(args, deck, golden, work)
    record.update({
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "platform": platform.platform(),
        "golden_made_with": golden_all["made_with"],
        "known_defects": golden_all["known_defects"],
        "metrics": metrics,
    })
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    bad = [s for s in record.get("samples", []) if not s["ok"]]
    print(f"{args.workload} seed {args.seed}: {attempted} runs, "
          f"{len(bad)} failed; nproc {os.cpu_count()}, {record['cpu']}, "
          f"versions {record.get('versions')}")
    for s in bad:
        print(f"  FAILED {s['id']}: {s.get('error', 'exit ' + str(s['exit']))}")
    for problem in record.get("problems", []):
        print(f"  PROBLEM {problem}")
    notes = record.get("notes", {})
    for name, (value, unit) in sorted((metrics or {}).items()):
        print(f"  {name} = {value:.6g} {unit}"
              + (f"  ({notes[name]})" if name in notes else ""))
    for name in ("fail_ratio", "calibration"):
        if name in notes:
            print(f"  {name} = {notes[name]}")
    print(f"record: {work / 'record.json'}")
    correct = metrics is not None and failed == 0 and all(
        math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (metrics or {}).items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

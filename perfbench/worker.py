"""One benchmark client: runs scenarios through ``bcontactlab.cli.main``.

    python3 worker.py setup SCENARIO.json   # time import + load + build once
    python3 worker.py job JOB.json          # run a job written by run.py

A job is a closed loop in this one process: each scenario starts after the
previous one has finished.  ``mode`` "run" loops over its scenarios until
``seconds`` have passed (or, with ``cycle`` false, until they are done);
``mode`` "trace" alternates an untraced and a traced pass over a fixed set
of scenarios.  Each scenario gets a wall budget; an overrun is stopped by
SIGALRM and counts as a failure.  Module-level imports are stdlib only, so
``setup`` times the program's imports and nothing of the benchmark's.
"""
from __future__ import annotations

import json
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path


class Overrun(BaseException):
    """Raised by SIGALRM; a BaseException so no ``except Exception`` eats it."""


def _alarm(signum, frame):
    raise Overrun()


class Calibration:
    """A fixed mix of CPU and memory work; call it for its seconds (best of 2).

    The host's speed drifts by a third over minutes, and the program slows
    about twice as much as a cache-resident loop does, because its working
    set misses cache.  So the kernel mixes a scalar Python loop (the
    interpreter-bound paths), multiply-adds streaming over three 3.2 MB
    arrays (the grid paths), a random gather from a 32 MB array and random
    reads of Python floats from a 200k-element list (cache misses).  The
    data live as long as the object; ``nbytes`` is their resident size,
    which run.py subtracts from the client's peak RSS.
    """

    def __init__(self):
        import sys

        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = np.linspace(0.0, 1.0, 400_000)
        self.b = np.linspace(1.0, 2.0, 400_000)
        self.c = np.zeros_like(self.a)
        self.small = np.arange(20_000.0)
        self.big = rng.random(4_000_000)
        self.idx = rng.integers(0, self.big.size, 200_000)
        self.floats = self.big[:200_000].tolist()
        self.order = rng.permutation(len(self.floats))[:20_000].tolist()
        self.nbytes = (sum(x.nbytes for x in (self.a, self.b, self.c,
                                              self.small, self.big, self.idx))
                       + sys.getsizeof(self.floats)
                       + len(self.floats) * sys.getsizeof(0.5))

    def __call__(self):
        import math

        np, a, b, c = self.np, self.a, self.b, self.c
        floats = self.floats
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(5000):
                x = i * 1e-4
                acc += math.sin(x) * x + (x * x) / (1.0 + x)
            np.sin(self.small)
            for _ in range(3):
                np.multiply(a, 1.0001, out=c)
                np.add(c, b, out=c)
            self.big[self.idx].sum()
            for i in self.order:
                acc += floats[i]
            best = min(best, time.perf_counter() - t0)
        return best


def setup_probe(scenario_path):
    t0 = time.perf_counter()
    import bcontactlab.cli  # noqa: F401  (the entry point every CLI call loads)
    from bcontactlab.scenarios import load_scenario, scenario_form

    scenario = load_scenario(scenario_path)
    if scenario.kind == "bcontact":
        scenario_form(scenario)
    elif scenario.kind == "beltrami":
        from bcontactlab.beltrami import BeltramiData
        BeltramiData.from_scenario(scenario.data)
    else:
        from bcontactlab.mcgehee import McGeheeParams, McGeheeState
        McGeheeParams(float(scenario.option("mu")))
        McGeheeState(*(float(scenario.option(k, 0.0))
                       for k in ("x0", "a0", "pr0", "pa0")))
    return time.perf_counter() - t0, Calibration()()


def _artifacts(out_dir):
    """(files, bytes) written; report.json counted without its timing block."""
    files = sorted(p for p in Path(out_dir).iterdir() if p.is_file())
    size = 0
    for path in files:
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("timing", None)
            size += len(json.dumps(report, indent=2, sort_keys=True)) + 1
        else:
            size += path.stat().st_size
    return len(files), size


def run_one(main, entry, out_dir, budget_s, golden, workloads):
    """Run one scenario; return its sample (wall time, status, check)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["all", "--scenario", entry["path"], "--out", str(out_dir),
            *entry["args"]]
    status, error = None, None
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    t0 = time.perf_counter()
    try:
        status = main(argv)
    except Overrun:
        error = f"overran the {budget_s:g} s budget"
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    sample = {"id": entry["id"], "wall_s": wall, "exit": status}
    report_path = Path(out_dir) / "report.json"
    if error is None and report_path.is_file():
        report = json.loads(report_path.read_text())
        sample["fingerprint"] = workloads.fingerprint(report, status)
        if golden is None:  # making the reference: keep what it is made of
            sample["fields"] = workloads.fingerprint_fields(report, status)
            sample["work"] = workloads.work_of(entry["workload"], entry,
                                               report)
    elif error is None:
        error = "no report.json written"
    expected = None if golden is None else golden.get(entry["id"], {})
    if error is None and expected is not None:
        if "fingerprint" not in expected:
            error = "no reference fingerprint for this scenario"
        elif sample["fingerprint"] != expected["fingerprint"]:
            error = (f"fingerprint {sample['fingerprint']} != reference "
                     f"{expected['fingerprint']}")
        elif status != 0:
            error = f"exit status {status}"
    sample["ok"] = error is None and status == 0
    if error is not None:
        sample["error"] = error
    return sample


def run_job(job):
    sys.path.insert(0, job["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy
    import scipy
    import workloads
    from bcontactlab.cli import main

    signal.signal(signal.SIGALRM, _alarm)
    golden = job["golden"]
    out_dir = Path(job["out_dir"])
    entries = job["entries"]
    for entry in entries:
        entry["workload"] = job["workload"]
    result = {"versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}

    def one(fn, entry):
        return run_one(fn, entry, out_dir, job["budget_s"], golden, workloads)

    resident = 0  # bytes of benchmark data to leave out of the peak RSS
    t_begin = time.perf_counter()
    if job["mode"] == "run":
        samples = []
        calibrate = Calibration()
        resident = calibrate.nbytes
        calib = calibrate()
        while job["cycle"] or len(samples) < len(entries):
            samples.append(one(main, entries[len(samples) % len(entries)]))
            samples[-1]["calib_s"] = [calib, calibrate()]
            calib = samples[-1]["calib_s"][1]
            if time.perf_counter() - t_begin >= job["seconds"]:
                break
        result["samples"] = samples
    else:
        from tracer import Tracer

        passes = []
        while True:
            t_pass = time.perf_counter()
            plain = [one(main, e) for e in entries]
            tracer = Tracer()
            tracer.install()
            traced_main = tracer.span("runner.main", main)
            traced, artifacts = [], [0, 0]
            try:
                for k, entry in enumerate(entries):
                    tracer.begin_run(k)
                    traced.append(one(traced_main, entry))
                    tracer.end_run()
                    files, size = _artifacts(out_dir)
                    artifacts[0] += files
                    artifacts[1] += size
            finally:
                tracer.uninstall()
            passes.append({"plain": plain, "traced": traced,
                           "layers": tracer.layer_totals(),
                           "reconcile": tracer.reconcile(),
                           "counts": {**tracer.counts,
                                      "runner.artifact_files": artifacts[0],
                                      "runner.artifact_bytes": artifacts[1]}})
            elapsed = time.perf_counter() - t_begin
            if elapsed + (time.perf_counter() - t_pass) > job["seconds"]:
                break
        tracer.save(job["spans"])
        result["passes"] = passes
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    result["peak_rss_mb"] = (peak - resident) / 2**20
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup_s, calib_s = setup_probe(sys.argv[2])
        print(json.dumps({"setup_s": setup_s, "calib_s": calib_s}))
    else:
        run_job(json.loads(Path(sys.argv[2]).read_text()))

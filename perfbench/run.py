"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 25 --trace 0

Run from the root of a courantcalc checkout.  The run makes the workload's
inputs from the seed, then runs the workload's fixed job list in whole
rounds until --seconds have passed, checking every job's answer against
`reference.py`.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of BENCHMARK.json.  Generated inputs live in
.perfbench/ under the checkout and are removed at the end; a traced run
leaves its spans in .perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "demos" / "data"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 15
MODULES = ("scalar", "linalg", "algebroid", "battery", "cochain", "dorfman",
           "cohomology", "cli", "report")

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import courantcalc from this checkout's src/, never from elsewhere."""
    if not (SRC / "courantcalc" / "__init__.py").is_file() or not DATA.is_dir():
        sys.exit(f"perfbench: no courantcalc sources or demos/data under {ROOT}")
    sys.path.insert(0, str(SRC))
    import importlib

    cc = types.SimpleNamespace(
        **{m: importlib.import_module(f"courantcalc.{m}") for m in MODULES})
    if Path(cc.cli.__file__).resolve().parent != SRC / "courantcalc":
        sys.exit(f"perfbench: imported courantcalc from {cc.cli.__file__}")
    return cc


def write_inputs(args):
    """Make the workload's inputs and job list in a directory, as a fresh
    process pays for it, and print the monotonic clock when done."""
    cc = import_program()
    directory = Path(args.write_inputs)
    directory.mkdir(parents=True, exist_ok=True)
    inputs = workloads.Inputs(args.workload, args.seed, DATA, directory)
    jobs = workloads.build_jobs(inputs, cc)
    workloads.write_json(directory / "jobs.json", {
        "workload": args.workload, "seed": args.seed, "inputs": inputs.notes,
        "jobs": [{"name": j.name, "argv": getattr(j, "argv", None)}
                 for j in jobs]})
    print(time.perf_counter())


def measure_setup(args, directory, gauge):
    """Time from process start to the end of set-up, in a fresh process that
    imports courantcalc and makes the inputs and jobs in directory.

    time.perf_counter reads the system-wide monotonic clock on Linux, so the
    child's reading at the end of its set-up can be set against the parent's
    reading just before it started the child.  Returns the measured time
    and the same scaled to the reference speed by the gauge's samples of
    the half second before the child.
    """
    factor = gauge.recent_factor()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--write-inputs", str(directory)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed: {proc.stderr[-2000:]}")
    measured = float(proc.stdout.split()[-1]) - start
    return measured, measured * factor


class Tally:
    """Attempted and failed jobs, and each job's first outcome."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.reasons = {}

    def record(self, job, raw, error):
        self.attempted += 1
        reason = error
        outcome = None
        if reason is None:
            outcome = job.outcome(raw)
            reason = job.expect(outcome)
        if reason is None:
            key = json.dumps(outcome, sort_keys=True, default=str)
            if job.name not in self.first:
                self.first[job.name] = (outcome, key)
            elif self.first[job.name][1] != key:
                reason = "output differs from the first round"
        if reason is not None:
            self.failed += 1
            self.reasons.setdefault(job.name, reason)
        return outcome

    def fail_all(self, name, reason, rounds):
        self.failed += rounds
        self.reasons.setdefault(name, reason)


def checked_tuples(outcome):
    if isinstance(outcome, dict) and "checks" in outcome:
        return sum(c["checked"] for c in outcome["checks"])
    if isinstance(outcome, list):
        return sum(item[2] for item in outcome)
    return 0


def run_round(jobs, tally, runner=None, between=None, gauge=None):
    """Run every job once, calling between() untimed after each; return the
    round's wall time, the same scaled to the reference speed by gauge if
    one runs (see speed.py), and the round's checked tuples."""
    wall = scaled = 0.0
    tuples = 0
    for job in jobs:
        error = raw = None
        mark = gauge.mark() if gauge else 0
        start = time.perf_counter()
        try:
            raw = runner(job.name, job) if runner else job()
        except Exception as exc:  # a job that raises is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        wall += took
        if gauge:
            scaled += gauge.scaled(took, mark)
        tuples += checked_tuples(tally.record(job, raw, error))
        if between:
            between()
    return wall, scaled, tuples


def finish(inputs, tally, rounds):
    for name, reason in workloads.final_checks(
            inputs, {k: v[0] for k, v in tally.first.items()}).items():
        tally.fail_all(name, reason, rounds)
    for name, reason in tally.reasons.items():
        sys.stderr.write(f"perfbench: FAILED {name}: {reason}\n")


def result(tally, metrics):
    return {"correct": tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def untraced(args, inputs, jobs, work):
    tally = Tally()
    walls, scaled, tuples, setup = [], [], [], []

    def between():
        # the set-up probes are spread over the run, between jobs, so that a
        # second or two of heavy load on the machine falls on few of them
        if len(setup) < SETUP_RUNS:
            setup.append(measure_setup(args, work / f"setup{len(setup)}",
                                       gauge))

    with speed.Gauge() as gauge:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            wall, wall_scaled, checked = run_round(jobs, tally, between=between,
                                                  gauge=gauge)
            if not walls:
                # the peak of set-up and one pass over the jobs: later rounds
                # only add heap fragmentation, which varies from run to run
                peak_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            walls.append(wall)
            scaled.append(wall_scaled)
            tuples.append(checked)
        while len(setup) < SETUP_RUNS:
            between()
    finish(inputs, tally, len(walls))
    sys.stderr.write("perfbench: measured " + json.dumps({
        "wall_s": walls, "scaled_wall_s": scaled,
        "setup_s": [m for m, _ in setup],
        "median_load_s": statistics.median(gauge.samples)}) + "\n")
    return result(tally, {
        "setup_s": {"value": statistics.median(s for _, s in setup),
                    "unit": "s"},
        "wall_s": {"value": statistics.median(scaled), "unit": "s"},
        "tuples_checked": {"value": statistics.median_low(tuples),
                           "unit": "count"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    })


def traced(args, inputs, jobs, cc):
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    tracer = tracing.Tracer()
    plain, walls, per_round = [], [], []
    start = time.perf_counter()
    # untraced and traced rounds alternate, so that the machine's drifts in
    # speed fall on both alike
    while len(walls) < 2 or time.perf_counter() - start < args.seconds:
        plain.append(run_round(jobs, tally)[0])
        tracer.install(cc)
        try:
            tracer.reset()
            walls.append(run_round(jobs, tally, tracer.job)[0])
        finally:
            tracer.uninstall()
        per_round.append(tracer.metrics())
    finish(inputs, tally, len(plain) + len(walls))
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_s":
            value = statistics.median(walls) - statistics.median(plain)
        else:
            value = statistics.median(r[m["name"]] for r in per_round)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "untraced_wall_s": plain, "traced_wall_s": walls,
                  "rounds": per_round})
    return result(tally, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", metavar="DIR", default=None,
                        help="only write the inputs and the job list to DIR")
    args = parser.parse_args(argv)
    if args.write_inputs:
        write_inputs(args)
        return 0
    cc = import_program()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    work.mkdir()
    try:
        inputs = workloads.Inputs(args.workload, args.seed, DATA, work)
        jobs = workloads.build_jobs(inputs, cc)
        if args.trace:
            out = traced(args, inputs, jobs, cc)
        else:
            out = untraced(args, inputs, jobs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

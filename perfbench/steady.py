"""Run one workload N times, each in a fresh process with its own seed and
the run length of BENCHMARK.json, and print each end-to-end metric's median,
quartiles and spread against its bound there, and the same for the
unscaled times of each run (the medians of its measured rounds and set-up
probes; see speed.py).

    python3 perfbench/steady.py --workload axioms --runs 10 --first-seed 1

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  The runs' results are also written to
.perfbench/steady-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        run["seed"] = seed
        run["measured"] = json.loads(
            proc.stderr.split("perfbench: measured ")[-1].splitlines()[0])
        runs.append(run)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in run["metrics"].items())
            + f", failed {run['failed']}/{run['attempted']}", flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"\n{args.workload}: {len(runs)} runs, failed share {shares}, "
          f"correct {all(r['correct'] for r in runs)}")
    print("| metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|")
    rows = [(m["name"], m["bound"],
             [r["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]]
    # the same times unscaled, to show what the speed scaling takes out
    rows += [(f"{name} unscaled", "-",
              [statistics.median(r["measured"][name]) for r in runs])
             for name in ("setup_s", "wall_s")]
    for name, bound, values in rows:
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"| {name} | {median:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{spread:.3f} | {bound} |")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}-{args.first_seed}.json").write_text(
        json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

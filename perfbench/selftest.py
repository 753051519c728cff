"""Show that the benchmark counts a wrong answer as a failed operation.

    python3 perfbench/selftest.py

Runs three small jobs through the same bookkeeping as run.py: the su2_bad
negative control with its true expected answer, the same job with a wrong
expected residual, and a Riemann comparison against a metric other than the
one the connection was built from.  Exits 0 when exactly the two wrong
expectations are counted as failed.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run
import workloads


def main():
    cc = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=run.OUT)
    try:
        inputs = workloads.Inputs("connections", 1, run.DATA, work)
        bad = workloads.reference.point_axiom_failures(inputs.doc("su2_bad"))
        wrong = {name: (witness, "2") for name, (witness, _) in bad.items()}
        argv = ["verify-algebroid", str(run.DATA / "su2_bad.json"), "--seed", "0"]
        jobs = [
            workloads.CliJob("su2_bad, true answer", argv,
                             workloads.expect_report(lambda: bad), cc.cli),
            workloads.CliJob("su2_bad, wrong residual", argv,
                             workloads.expect_report(lambda: wrong), cc.cli),
        ]
        tally = run.Tally()
        run.run_round(jobs, tally)
        riemann = workloads.riemann_job(inputs, cc)
        run.run_round([riemann], tally)
        inputs.metric = ["1", "1 + x1^2 + x2^2"]
        run.finish(inputs, tally, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expected = {"su2_bad, wrong residual", riemann.name}
    ok = (tally.attempted == 3 and tally.failed == 2
          and set(tally.reasons) == expected)
    print(f"attempted {tally.attempted}, failed {tally.failed}: "
          f"{sorted(tally.reasons)}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's self-test runs against the current package.

`perfbench/selftest.py` runs a job with its true expected answer and two
with wrong ones, and passes when exactly the wrong two count as failed.  A
change to the scalar ring that alters a residual's text or breaks the
reference comparison makes it fail here, before a benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout

"""Smoke test of tools/linecov.py, the stdlib line collector."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT = ROOT / "src" / "courantcalc" / "report.py"


def _listed(stdout, module):
    """The line numbers the tool prints for module, ranges expanded."""
    [line] = [l for l in stdout.splitlines() if l.startswith(f"{module}: ")]
    out = set()
    for part in line.split(": ", 1)[1].split(", "):
        first, _, last = part.partition("-")
        out.update(range(int(first), int(last or first) + 1))
    return out


def test_linecov_lists_the_lines_a_run_never_reaches():
    proc = subprocess.run(
        [sys.executable, "tools/linecov.py", "-q", "-p", "no:cacheprovider",
         "tests/test_report.py"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "not traced" in proc.stdout
    listed = _listed(proc.stdout, "report.py")
    defs = {node.name: node for node in ast.walk(ast.parse(REPORT.read_text()))
            if isinstance(node, ast.FunctionDef)}
    # tests/test_report.py never renders a report, and runs every check
    # through verdict
    render, verdict = defs["render"], defs["verdict"]
    assert {render.body[0].lineno, render.body[-1].lineno} <= listed
    assert listed.isdisjoint(range(verdict.body[1].lineno, verdict.end_lineno + 1))

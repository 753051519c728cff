"""List the lines of courantcalc that a pytest run never executes.

    python3 tools/linecov.py [pytest arguments]

Run from the root of a courantcalc checkout, e.g. ``python3 tools/linecov.py
-q tests/test_report.py``; with no arguments pytest runs the whole suite.
The tests run in this process under a ``sys.settrace`` line collector that
records only frames of ``src/courantcalc``, so the run is several times
slower than plain pytest.  After pytest finishes, each module with executable
lines that never ran is printed as ``module.py: 12, 15-17``; ``def`` and
``class`` lines and docstrings are not counted.  Code run in a subprocess
(the demos, the CLI started as a child interpreter) is not traced, so lines
reached only that way are listed.  The exit code is pytest's.

Hypothesis replaces the tracer while it runs its ``explain`` phase, so that
phase is turned off through a profile, and the tracer is installed again
before every test.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "courantcalc"
PREFIX = str(PACKAGE) + os.sep

hits = defaultdict(set)


def _lines(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(PREFIX) else None


def _install():
    sys.settrace(_calls)
    threading.settrace(_calls)


class _Retrace:
    """pytest plugin: a hypothesis profile without the explain phase, and
    the tracer again before each test's setup and call."""

    def pytest_configure(self, config):
        # hypothesis is imported by now, as a pytest plugin; the profile is
        # loaded before the test modules are, so their @settings inherit it
        from hypothesis import Phase, settings

        settings.register_profile(
            "linecov", phases=[p for p in Phase if p is not Phase.explain])
        settings.load_profile("linecov")

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        _install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        _install()


def executable_lines(path):
    """Lines holding code, without def/class headers and docstrings."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 is the module's own entry, not a source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if not body:
            continue
        if not isinstance(node, ast.Module):
            lines.difference_update(range(node.lineno, body[0].lineno))
        first = body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def _ranges(numbers):
    out = []
    for n in sorted(numbers):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv):
    # the package from this checkout, here and in the tests' subprocesses
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    _install()
    try:
        code = pytest.main(argv, plugins=[_Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"never-run lines of {PACKAGE.relative_to(ROOT)} "
          "(code run in subprocesses, such as the demos, is not traced):")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - hits[str(path)]
        if missed:
            print(f"{path.name}: {_ranges(missed)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

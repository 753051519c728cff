"""Golden reports: CLI output and demo output must not change byte for byte.

Every command line of the README, a few negative controls and
``connection-build`` on the port-Hamiltonian predual run in process, through
``courantcalc.cli.main`` with standard output and error redirected, from the
repository root with its relative paths and ``--format json``; its standard
output (as UTF-8 bytes) and exit code are compared with the files under
``tests/golden/``, and the connection written
by ``connection-build -o`` with ``tests/golden/connection.json``.  The
commands that read a connection read that golden file, so the README's
``/tmp/conn.json`` is replaced by ``tests/golden/connection.json``.  Each
``demos/0N_*.py`` script runs in a subprocess and its standard output is
compared with ``tests/golden/demo_0N.txt``.

Regenerate the files (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from courantcalc import cli
from courantcalc.report import Report, run_check

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONNECTION = "tests/golden/connection.json"
# negative control: a frame coefficient that breaks d_B-equivariance
BROKEN = "tests/golden/connection_broken.json"
# negative control for Bianchi: an su(2) connection over an algebroid that
# fails Jacobi ([e1,e2] = e2, [e2,e3] = e1), so d_nabla R = 0 fails too; a
# connection that breaks only d_B-equivariance, as BROKEN does, still
# satisfies Bianchi
BAD_JACOBI = ["tests/golden/bianchi_bad_algebroid.json",
              "tests/golden/bianchi_bad_predual.json",
              "tests/golden/bianchi_bad_connection.json"]

STD2 = "demos/data/standard2.json"
PRE2 = "demos/data/predual_standard2.json"

CLI_CASES = {
    "verify_standard2": ["verify-algebroid", STD2],
    "verify_su2_bad": ["verify-algebroid", "demos/data/su2_bad.json"],
    # the one golden whose Leibniz kernel meets nonconstant structure
    # functions on polynomial arguments
    "verify_ph11_curved": ["verify-algebroid",
                           "demos/data/port_hamiltonian11_curved.json"],
    "cartan_su2": ["cartan", "demos/data/su2.json"],
    # negative control: a bracket that breaks Jacobi fails only
    # [L_e1, L_e2] = L_[e1,e2], the one relation that needs it
    "cartan_non_jacobi": ["cartan", "demos/data/non_jacobi.json"],
    "connection_build": ["connection-build", STD2, PRE2],
    "connection_build_ph11": ["connection-build",
                              "demos/data/port_hamiltonian11.json",
                              "demos/data/predual_ph11.json"],
    "connection_verify": ["connection-verify", STD2, PRE2, CONNECTION],
    "curvature": ["curvature", STD2, PRE2, CONNECTION],
    "bianchi": ["bianchi", STD2, PRE2, CONNECTION],
    "bott_tangent": ["bott", STD2, "demos/data/dirac_tangent.json"],
    "bott_bad": ["bott", STD2, "demos/data/dirac_bad.json"],
    "cohomology_su2": ["cohomology", "demos/data/su2.json"],
    "predual_diagnose": ["predual-diagnose", STD2, PRE2],
    "connection_verify_broken": ["connection-verify", STD2, PRE2, BROKEN,
                                 "--battery-degree", "1", "--extras", "1"],
    "curvature_broken": ["curvature", STD2, PRE2, BROKEN,
                         "--battery-degree", "1", "--extras", "1"],
    "bianchi_broken": ["bianchi", *BAD_JACOBI],
}

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*_*.py"))


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True)


def run_cli_case(name, connection_out=None):
    argv = [*CLI_CASES[name], "--format", "json"]
    if connection_out is not None:
        argv += ["-o", str(connection_out)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return out.getvalue().encode("utf-8"), code


def run_demo(script):
    proc = _run([f"demos/{script}"])
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _demo_golden(script):
    return GOLDEN / f"demo_{script[:2]}.txt"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_matches_golden(name, tmp_path):
    built = tmp_path / "conn.json" if name == "connection_build" else None
    stdout, code = run_cli_case(name, built)
    expected_codes = json.loads((GOLDEN / "cli_exit_codes.json").read_bytes())
    assert code == expected_codes[name]
    assert stdout == (GOLDEN / f"cli_{name}.json").read_bytes()
    if built is not None:
        assert built.read_bytes() == (GOLDEN / "connection.json").read_bytes()


# checks that report.add may take from outside report.run_check, each a
# comparison with no tuple stream of its own
NOT_RUN_CHECKS = {
    "anchor-isotropy-matrix-identity": "a matrix identity",
    "pairing-rank-computed": "a rank comparison",
}


def test_every_golden_cli_check_is_made_by_run_check(tmp_path, monkeypatch):
    adders = {}
    add = Report.add

    def recording_add(report, name, *rest):
        adders.setdefault(name, set()).add(sys._getframe(1).f_code)
        return add(report, name, *rest)

    monkeypatch.setattr(Report, "add", recording_add)
    for name in sorted(CLI_CASES):
        run_cli_case(name, tmp_path / "conn.json" if name == "connection_build"
                     else None)
    by_hand = {name for name, codes in adders.items()
               if codes != {run_check.__code__}}
    assert by_hand == set(NOT_RUN_CHECKS)


@pytest.mark.parametrize("script", DEMOS)
def test_demo_output_matches_golden(script):
    assert run_demo(script) == _demo_golden(script).read_bytes()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    # connection-build first: the later commands read its output
    stdout, code = run_cli_case("connection_build", GOLDEN / "connection.json")
    codes = {"connection_build": code}
    (GOLDEN / "cli_connection_build.json").write_bytes(stdout)
    for name in sorted(CLI_CASES):
        if name == "connection_build":
            continue
        stdout, codes[name] = run_cli_case(name)
        (GOLDEN / f"cli_{name}.json").write_bytes(stdout)
    (GOLDEN / "cli_exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for script in DEMOS:
        _demo_golden(script).write_bytes(run_demo(script))


if __name__ == "__main__":
    regenerate()

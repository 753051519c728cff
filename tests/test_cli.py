import argparse
import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest

from courantcalc import cli
from courantcalc import cochain as co
from courantcalc import dorfman as dc
from courantcalc import linalg
from courantcalc.algebroid import algebroid_from_json, algebroid_to_json
from courantcalc.cohomology import PointComplex
from courantcalc.report import Report

ROOT = pathlib.Path(__file__).parent.parent
DATA = ROOT / "demos" / "data"
STD2, PRE2 = str(DATA / "standard2.json"), str(DATA / "predual_standard2.json")
CONNECTION = str(ROOT / "tests" / "golden" / "connection.json")
STANDARD2 = json.loads((DATA / "standard2.json").read_text())
PREDUAL2 = json.loads((DATA / "predual_standard2.json").read_text())


def run_cli(*argv):
    """``python -m courantcalc.cli argv`` run in this process: its exit code,
    stdout and stderr, with SystemExit (argparse's rejection) as the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "courantcalc.cli", *argv],
                          capture_output=True, text=True)


def test_verify_algebroid_pass():
    proc = run_cli("verify-algebroid", str(DATA / "standard1.json"))
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_verify_algebroid_failure_exit_code():
    proc = run_cli("verify-algebroid", str(DATA / "su2_bad.json"))
    assert proc.returncode == 1
    assert "pairing-compatibility" in proc.stdout
    assert "residual: 1" in proc.stdout


def test_malformed_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("verify-algebroid", str(bad))
    assert proc.returncode == 2


def test_missing_file_exit_code():
    proc = run_cli("verify-algebroid", "no_such_file.json")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["verify-algebroid", "cartan", "cohomology"])
@pytest.mark.parametrize("doc", [
    {"n": 1, "rank": 1, "pairing": [["x1"]], "anchor": [["0"]]},
    {"n": 1, "rank": 0, "pairing": [], "anchor": [[]]},
    {"n": 0, "rank": 0, "pairing": [], "anchor": []},
    {"n": 0, "rank": -1, "pairing": [], "anchor": []},
], ids=["nonconstant-pairing", "rank-0", "rank-0-over-a-point", "negative-rank"])
def test_semantic_precondition_exit_code(tmp_path, doc, command):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(command, str(path))
    assert proc.returncode == 3
    assert "precondition" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cohomology_table():
    proc = run_cli("cohomology", str(DATA / "su2.json"))
    assert proc.returncode == 0
    lines = [l.split() for l in proc.stdout.splitlines()
             if l[:1].isdigit()]
    assert [l[-1] for l in lines] == ["1", "0", "0", "1"]


def test_cohomology_d_squared_failure_has_a_witness(non_jacobi, tmp_path):
    path = tmp_path / "non_jacobi.json"
    path.write_text(json.dumps(algebroid_to_json(non_jacobi)))
    proc = run_cli("cohomology", str(path), "--format", "json")
    assert proc.returncode == 1
    check = json.loads(proc.stdout)["checks"][0]
    assert check == {"name": "differential-squares-to-zero", "status": "fail",
                     "checked": 6, "witness": "p=1, row 1, column 2",
                     "residual": "1"}
    # the entry is d(d w) on the row's frame tuple, w the column's dual-frame
    # functional, evaluated by the cochain DAG
    pc = PointComplex(non_jacobi)
    ginv = linalg.inverse(non_jacobi.pairing_matrix)
    dual = [non_jacobi.element(ginv[i]) for i in range(3)]
    [idx] = pc.basis(1)[2 - 1]
    ddw = co.differential(co.differential(co.section_leaf(non_jacobi, dual[idx])))
    row = pc.basis(3)[1 - 1]
    assert str(co.evaluate(ddw, 0, tuple(non_jacobi.frame[t] for t in row))) \
        == check["residual"]


def test_connection_build_and_verify(tmp_path):
    out = tmp_path / "conn.json"
    proc = run_cli("connection-build", str(DATA / "standard2.json"),
                   str(DATA / "predual_standard2.json"), "-o", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc == {"gamma": {}}
    proc = run_cli("connection-verify", str(DATA / "standard2.json"),
                   str(DATA / "predual_standard2.json"), str(out))
    assert proc.returncode == 0


def test_curvature_and_bianchi(tmp_path):
    out = tmp_path / "conn.json"
    run_cli("connection-build", str(DATA / "standard2.json"),
            str(DATA / "predual_standard2.json"), "-o", str(out))
    proc = run_cli("curvature", str(DATA / "standard2.json"),
                   str(DATA / "predual_standard2.json"), str(out))
    assert proc.returncode == 0
    proc = run_cli("bianchi", str(DATA / "standard2.json"),
                   str(DATA / "predual_standard2.json"), str(out))
    assert proc.returncode == 0


def test_bott_rejects_bad_dirac_with_witness():
    proc = run_cli("bott", str(DATA / "standard2.json"),
                   str(DATA / "dirac_bad.json"))
    assert proc.returncode == 3
    assert "isotropic" in proc.stderr


def test_bott_on_an_odd_rank_algebroid_says_the_rank_is_odd(tmp_path):
    alg, dirac = tmp_path / "alg.json", tmp_path / "dirac.json"
    alg.write_text(json.dumps({"n": 0, "rank": 1, "pairing": [["1"]],
                               "anchor": []}))
    dirac.write_text(json.dumps({"frame": []}))
    proc = run_cli("bott", str(alg), str(dirac))
    assert proc.returncode == 3
    assert "rank 1 is odd" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bott_accepts_tangent_distribution():
    proc = run_cli("bott", str(DATA / "standard2.json"),
                   str(DATA / "dirac_tangent.json"))
    assert proc.returncode == 0
    assert "curvature-vanishes" in proc.stdout


def test_predual_diagnose():
    proc = run_cli("predual-diagnose", str(DATA / "standard2.json"),
                   str(DATA / "predual_standard2.json"))
    assert proc.returncode == 0
    assert "case: isomorphic" in proc.stdout


def test_predual_diagnose_rank_mismatch_fails_with_witness():
    # the check compares the diagnosed rank with a second elimination, on
    # the transpose: an off-by-one first rank must fail it
    real = dc.predual_diagnose

    def off_by_one(bundle):
        diag = real(bundle)
        diag["pairing_rank"] += 1
        return diag

    with mock.patch.object(dc, "predual_diagnose", off_by_one):
        proc = run_cli("predual-diagnose", STD2, PRE2, "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["checks"] == [
        {"name": "pairing-rank-computed", "status": "fail", "checked": 1,
         "witness": "pairing matrix (4 x 4)",
         "residual": "rank 5 != rank of transpose 4"}]


def verify_calls(*argv):
    """run_cli(*argv) with dorfman.verify_connection wrapped: the run, and
    how often it verified each connection object."""
    with mock.patch.object(dc, "verify_connection",
                           side_effect=dc.verify_connection) as spy:
        proc = run_cli(*argv, "--battery-degree", "1", "--extras", "1")
    # the spy's call list holds the connections, so no id is reused
    return proc, Counter(id(call.args[0]) for call in spy.call_args_list)


@pytest.mark.parametrize("algebroid,predual", [
    (STD2, PRE2),
    (str(DATA / "port_hamiltonian11.json"), str(DATA / "predual_ph11.json")),
], ids=["standard2", "port_hamiltonian11"])
def test_connection_build_verifies_once(algebroid, predual):
    proc, calls = verify_calls("connection-build", algebroid, predual)
    assert proc.returncode == 0
    assert sum(calls.values()) == 1


@pytest.mark.parametrize("argv", [
    ("connection-verify", STD2, PRE2, CONNECTION),
    ("curvature", STD2, PRE2, CONNECTION),
    ("bianchi", STD2, PRE2, CONNECTION),
    ("bott", STD2, str(DATA / "dirac_tangent.json")),
], ids=lambda argv: argv[0])
def test_each_connection_is_verified_at_most_once(argv):
    proc, calls = verify_calls(*argv)
    assert proc.returncode == 0
    assert max(calls.values(), default=0) <= 1


def test_connection_build_self_test_failure_exits_4(tmp_path):
    failing = Report("connection axioms")
    failing.add("derivation-image-equivariance", False, 5, "e1, f=x1, b=b2",
                "x2")
    out = tmp_path / "conn.json"
    with mock.patch.object(dc, "verify_connection", return_value=failing):
        proc = run_cli("connection-build", STD2, PRE2, "-o", str(out))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == (
        "internal error: ConstructionError: constructed connection failed "
        "derivation-image-equivariance at e1, f=x1, b=b2 (residual x2)\n")
    assert not out.exists()


def test_json_reports_are_byte_identical():
    # two interpreters, so two string-hash seeds: the report must not depend on them
    args = ("verify-algebroid", str(DATA / "su2.json"),
            "--format", "json", "--seed", "3")
    first = run_cli_process(*args)
    second = run_cli_process(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["command"] == "verify-algebroid"
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_cartan_command():
    proc = run_cli("cartan", str(DATA / "su2.json"))
    assert proc.returncode == 0
    assert "lie-section-lie-section" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["verify-algebroid", "--extras", "-2"],
    ["verify-algebroid", "--battery-degree", "-1"],
], ids=["extras", "battery-degree"])
def test_negative_numeric_flags_exit_2(argv):
    proc = run_cli(argv[0], str(DATA / "su2.json"), *argv[1:])
    assert proc.returncode == 2
    assert f"argument {argv[1]}: must be >= 0" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["cartan", "--max-degree", "4"],
    ["cohomology", "--max-p", "3"],
], ids=["max-degree", "max-p"])
def test_removed_options_are_unrecognized(argv):
    proc = run_cli(argv[0], str(DATA / "su2.json"), *argv[1:])
    assert proc.returncode == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in proc.stderr
    assert proc.stdout == ""


def test_connection_build_without_a_correction_is_a_failed_precondition(tmp_path):
    # alpha_1 = d/dx1 and alpha_2 = d/dx2 + x1 d/dx3 do not close:
    # [alpha_1, alpha_2] = d/dx3, which no correction of gamma absorbs
    alg = {"n": 3, "rank": 2, "pairing": [["0", "1"], ["1", "0"]],
           "anchor": [["1", "0"], ["0", "1"], ["0", "x1"]], "bracket": {}}
    predual = {"rank": 2, "pairing_P": [["1", "0"], ["0", "1"]],
               "alpha_A": [["1", "0", "0"], ["0", "1", "x1"]]}
    paths = []
    for name, doc in (("alg.json", alg), ("predual.json", predual)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    proc = run_cli("connection-build", *paths)
    assert proc.returncode == 3
    assert proc.stderr.startswith("precondition failed: no connection correction "
                                  "exists for frame index 0")
    assert proc.stdout == ""


def test_numeric_entries_are_malformed_input(tmp_path):
    doc = {"n": 0, "rank": 2, "pairing": [[0, 1], [1, 0]],
           "anchor": [], "bracket": {}}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("verify-algebroid", str(path))
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("doc", [
    {"n": 0, "rank": 2, "pairing": [["0", "1"], ["1", "0"]], "anchor": 5,
     "bracket": {}},
    {"n": 0, "rank": 2, "pairing": [["0", "1"], ["1", "0"]], "anchor": [],
     "bracket": {"1,2": 3}},
    {"n": 2},
    [{"n": 0, "rank": 1, "pairing": [["1"]]}],
    {**STANDARD2, "n": 2.9},
    {**STANDARD2, "n": 2.0},
    {**STANDARD2, "n": "2"},
    {**STANDARD2, "rank": 4.5},
    {**STANDARD2, "rank": True},
], ids=["anchor-not-a-list", "bracket-entry-not-a-list", "missing-fields",
        "top-level-list", "n-float", "n-integral-float", "n-string",
        "rank-float", "rank-bool"])
def test_wrong_typed_or_missing_fields_are_malformed_input(tmp_path, doc):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("verify-algebroid", str(path))
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_witness_keeps_frame_labels_when_a_random_section_repeats_one():
    # at battery seed 3 a random section of su2_bad equals a frame section
    proc = run_cli("verify-algebroid", str(DATA / "su2_bad.json"),
                   "--seed", "3")
    assert proc.returncode == 1
    assert "witness: e1 , e2 , e3" in proc.stdout


STD2 = str(DATA / "standard2.json")
PRE2 = str(DATA / "predual_standard2.json")


@pytest.mark.parametrize("command,doc", [
    ("bott", {"frame": 5}),
    ("bott", []),
    ("connection-build", {}),
    ("connection-build", {"rank": 4, "pairing_P": 5, "alpha_A": []}),
    ("connection-verify", []),
    ("connection-verify", {"gamma": 5}),
    ("connection-build", {**PREDUAL2, "rank": 4.5}),
    ("connection-build", {**PREDUAL2, "rank": 4.0}),
    ("connection-build", {**PREDUAL2, "rank": True}),
    ("connection-build", {**PREDUAL2, "rank": None}),
], ids=["dirac-frame-not-a-list", "dirac-top-level-list", "predual-empty",
        "predual-pairing-not-a-list", "connection-top-level-list",
        "connection-gamma-not-an-object", "predual-rank-float",
        "predual-rank-integral-float", "predual-rank-bool", "predual-rank-null"])
def test_malformed_predual_connection_and_dirac_documents(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    inputs = {"bott": [STD2, str(path)],
              "connection-build": [STD2, str(path)],
              "connection-verify": [STD2, PRE2, str(path)]}[command]
    proc = run_cli(command, *inputs)
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["directory", "not-utf8", "output-directory"])
def test_unreadable_input_and_unwritable_output_exit_2(tmp_path, case):
    binary = tmp_path / "alg.json"
    binary.write_bytes(b"\xff\xfe")
    argv = {"directory": ["verify-algebroid", str(DATA)],
            "not-utf8": ["verify-algebroid", str(binary)],
            "output-directory": ["verify-algebroid", str(DATA / "standard1.json"),
                                 "-o", str(tmp_path)]}[case]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_internal_error_exits_4_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "verify-algebroid", broken)
    assert cli.main(["verify-algebroid", str(DATA / "su2.json")]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_internal_key_error_is_not_malformed_input(monkeypatch, capsys):
    # every field the loaders read is checked first, so a KeyError is a fault
    # of the program, not of the input
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setitem(cli.COMMANDS, "verify-algebroid", broken)
    assert cli.main(["verify-algebroid", str(DATA / "su2.json")]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: KeyError: 'internal'\n"


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "courantcalc", "verify-algebroid",
         str(DATA / "su2_bad.json")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "pairing-compatibility" in proc.stdout


@pytest.mark.parametrize("entry,message", [
    ("x1^65", "exponent 65 exceeds the cap of 64"),
    ("(1+x1)^64*(1+x2)^64", "4226 terms, over the cap of 4096"),
    ("(2^64)^64", "4097-bit coefficient, over the cap of 4096 bits"),
    ("1" + "0" * 1300, "wider than 4096 bits"),
    ("((1+x1)^63*(1+x2)^62)*((1+x1)^62*(1+x2)^63)",
     "16265089 term pairs is over the cap of 1048576"),
], ids=["exponent", "terms", "coefficient-bits", "long-literal", "work"])
def test_parser_caps_exit_2(tmp_path, entry, message):
    doc = json.loads((DATA / "standard2.json").read_text())
    doc["anchor"][0][0] = entry
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("verify-algebroid", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"n": 1, "rank": 2, "pairing": [["'
                                  + "(" * 5000 + "1" + ")" * 5000 + '"]]}'],
                         ids=["json", "scalar"])
def test_deeply_nested_input_exits_2(tmp_path, text):
    path = tmp_path / "alg.json"
    path.write_text(text)
    proc = run_cli("verify-algebroid", str(path))
    assert proc.returncode == 2
    assert "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


KEYED_CASES = [
    ("not-an-object", 5, 2, 'input error: "{field}" must be an object of "i,j" keys'),
    ("entry-not-a-list", {"1,2": "0"}, 2,
     "input error: {kind} entry '1,2' must be a list of scalar strings"),
    ("bad-key", {"1;2": []}, 3, "precondition failed: bad {kind} key '1;2'"),
    ("out-of-shape", {"1,9": []}, 3,
     "precondition failed: {kind} entry '1,9' out of shape"),
]


@pytest.mark.parametrize("kind", ["bracket", "gamma"])
@pytest.mark.parametrize("case,entries,code,message", KEYED_CASES,
                         ids=[c[0] for c in KEYED_CASES])
def test_keyed_entry_errors(tmp_path, capsys, kind, case, entries, code, message):
    # the algebroid's "bracket" and the connection's "gamma" share one reader
    path = tmp_path / "doc.json"
    if kind == "bracket":
        doc = json.loads((DATA / "standard2.json").read_text())
        argv = ["verify-algebroid", str(path)]
    else:
        doc = {}
        argv = ["connection-verify", STD2, PRE2, str(path)]
    doc[kind] = entries
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message.format(field=kind, kind=kind) + "\n"


@pytest.mark.parametrize("case,entries,code,message", KEYED_CASES,
                         ids=[c[0] for c in KEYED_CASES])
def test_christoffel_entry_errors(case, entries, code, message):
    # no command reads Christoffel data, so the loader's own errors are pinned
    from courantcalc import dorfman as dc
    from courantcalc.report import PreconditionError
    from courantcalc.scalar import ParseError

    with pytest.raises(ParseError if code == 2 else PreconditionError) as exc:
        dc.christoffel_from_json({"gamma": entries}, 2)
    _, text = message.format(field="gamma", kind="christoffel").split(": ", 1)
    assert str(exc.value) == text


def test_curvature_without_an_adapted_frame_exits_3(tmp_path):
    conn = tmp_path / "conn.json"
    conn.write_text(json.dumps({"gamma": {}}))
    proc = run_cli("curvature", str(DATA / "port_hamiltonian11.json"),
                   str(DATA / "predual_ph11.json"), str(conn))
    bundle = dc.predual_from_json(
        algebroid_from_json(json.loads((DATA / "port_hamiltonian11.json").read_text())),
        json.loads((DATA / "predual_ph11.json").read_text()))
    defect = dc.adapted_frame_defect(bundle)
    assert defect.startswith("adapted-frame check failed at ")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"precondition failed: {defect}\n"


def test_every_command_line_option_is_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    missing = sorted({f"{command} {option}"
                      for command, parser in subparsers.choices.items()
                      for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)
                      for option in action.option_strings
                      if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])",
                                       section)})
    assert missing == []


def test_output_file_holds_the_text_report_and_keeps_the_exit_code(tmp_path):
    broken = str(ROOT / "tests" / "golden" / "connection_broken.json")
    argv = ("connection-verify", STD2, PRE2, broken,
            "--battery-degree", "1", "--extras", "1")
    out = tmp_path / "report.txt"
    proc = run_cli(*argv, "-o", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert out.read_text() == run_cli(*argv).stdout
    assert "result: checks FAILED" in out.read_text()


def test_non_integer_numeric_flag_exits_2():
    proc = run_cli("verify-algebroid", str(DATA / "su2.json"),
                   "--battery-degree", "two")
    assert proc.returncode == 2
    assert "argument --battery-degree: invalid int value: 'two'" in proc.stderr
    assert proc.stdout == ""

"""Fuzz the CLI contract: every input document ends in exit 0, 1, 2 or 3.

Each test takes a well-formed document of one kind the CLI reads (an
algebroid, a predual, a connection or a Dirac frame), applies a few random
edits (a scalar entry rewritten from a small grammar that includes
malformed text and over-cap exponents, a value of the wrong JSON type, a
deleted key or entry) and runs ``cli.main`` in process on it at battery
1/0.  Exit 4 (an internal error) or a traceback on stderr fails the test.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from courantcalc import cli

DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"

WELL_FORMED = ["0", "1", "-2", "7", "1/2", "-3/4", "x1", "x2"]
MALFORMED = ["x3", "x0", "", "x", "1/0", "(", "2*", "x1^x2", "x1^-1", "1 2",
             "@", "x1^1.5"]
# exponents up to 3 keep a well-formed document cheap; the rest are over
# the parser's cap of 64
EXPONENTS = [0, 1, 2, 3, 65, 300, 30000000]

scalar_text = st.recursive(
    st.sampled_from(WELL_FORMED * 3 + MALFORMED),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(inner, st.sampled_from(EXPONENTS)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda s: f"-{s}"),
    ),
    max_leaves=4)

junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
                 st.sampled_from([[], {}, [[]], "1,2", [["1"]], {"1,1": []}]),
                 st.lists(st.sampled_from(["0", "1", "x1"]), max_size=3))


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _mutate(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        # the root, which any edit replaces, only now and then
        paths = list(_paths(doc))[1:] or [()]
        if data.draw(st.integers(0, 9), label="root") == 9:
            paths = [()]
        path = data.draw(st.sampled_from(paths), label="path")
        action = data.draw(st.sampled_from(["scalar"] * 4 + ["junk", "delete"]),
                           label="action")
        value = (data.draw(scalar_text, label="scalar") if action == "scalar"
                 else data.draw(junk, label="junk"))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--battery-degree", "1", "--extras", "0"])
    return code, err.getvalue()


def _check(command, inputs, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, *(str(path) if p is None else str(DATA / p)
                           for p in inputs)]
        code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, doc, err)
    assert "Traceback" not in err


FUZZ = settings(max_examples=50, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _doc(name):
    return json.loads((DATA / name).read_text())


@FUZZ
@given(st.data(), st.sampled_from(["standard1.json", "su2.json"]))
def test_fuzzed_algebroid_documents_keep_the_exit_contract(data, name):
    _check("verify-algebroid", [None], _mutate(data, _doc(name)))


@FUZZ
@given(st.data())
def test_fuzzed_predual_documents_keep_the_exit_contract(data):
    _check("connection-build", ["port_hamiltonian11.json", None],
           _mutate(data, _doc("predual_ph11.json")))


CONNECTION = {"gamma": {"1,1": ["0", "x1"], "3,2": ["1", "0"]}}


@FUZZ
@given(st.data())
def test_fuzzed_connection_documents_keep_the_exit_contract(data):
    _check("connection-verify",
           ["port_hamiltonian11.json", "predual_ph11.json", None],
           _mutate(data, CONNECTION))


@FUZZ
@given(st.data(), st.sampled_from(["dirac_tangent.json",
                                   "dirac_closed_two_form.json"]))
def test_fuzzed_dirac_documents_keep_the_exit_contract(data, name):
    _check("bott", ["standard2.json", None], _mutate(data, _doc(name)))

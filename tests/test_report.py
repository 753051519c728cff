import pytest

from courantcalc.report import Report, run_check, verdict
from courantcalc.scalar import Scalar


class RecordingReport(Report):
    def __init__(self):
        super().__init__()
        self.added = []

    def add(self, *args):
        self.added.append(args)
        super().add(*args)


def _run(values, evaluated=None):
    described = []

    def sides(i):
        if evaluated is not None:
            evaluated.append(i)
        return Scalar.const(0, values[i]), Scalar.zero(0)

    def witness(i):
        described.append(i)
        return f"t{i}"

    report = RecordingReport()
    run_check(report, "c", ((i,) for i in range(len(values))), sides, witness)
    return report, described


def test_run_check_keeps_the_first_witness_and_counts_every_tuple():
    report, described = _run([0, 3, 0, 5, 0])
    check = report["c"]
    assert (check.passed, check.checked, check.witness, check.residual) == \
        (False, 5, "t1", "3")
    assert described == [1]
    assert report.added == [("c", False, 5, "t1", "3")]


def test_run_check_stops_evaluating_at_the_witness():
    evaluated = []
    report, _ = _run([0, 3, 0, 5, 0], evaluated)
    assert evaluated == [0, 1]
    assert report["c"].checked == 5


def test_run_check_passes_without_describing_a_witness():
    report, described = _run([0, 0, 0])
    check = report["c"]
    assert (check.passed, check.checked, check.witness, check.residual) == \
        (True, 3, None, None)
    assert described == []
    assert report.added == [("c", True, 3, None, None)]


def test_run_check_on_no_tuples_passes_with_none_checked():
    report, described = _run([])
    assert (report["c"].passed, report["c"].checked) == (True, 0)
    assert described == []


class Side:
    """A value that compares by its number and records each difference it
    takes; with ``forbid`` it refuses to take one."""

    def __init__(self, value, log, forbid=False):
        self.value, self.log, self.forbid = value, log, forbid

    def __eq__(self, other):
        return self.value == other.value

    def __sub__(self, other):
        if self.forbid:
            raise AssertionError("a passing tuple formed lhs - rhs")
        self.log.append((self.value, other.value))
        return Scalar.const(0, self.value - other.value)


def test_equal_sides_pass_without_forming_the_difference():
    log = []
    tuples = [(1,), (2,), (3,)]
    result = verdict(tuples, lambda i: (Side(i, log, forbid=True), Side(i, log)),
                     lambda i: f"t{i}")
    assert result == (True, 3, None, None)
    assert log == []


def test_unequal_sides_report_their_difference_at_the_witness():
    log, evaluated = [], []

    def sides(i, lhs, rhs):
        evaluated.append(i)
        return Side(lhs, log, forbid=lhs == rhs), Side(rhs, log)

    tuples = [(0, 4, 4), (1, 7, 2), (2, 1, 9), (3, 5, 5)]
    result = verdict(tuples, sides, lambda i, *_: f"t{i}")
    assert result == (False, 4, "t1", "5")
    assert evaluated == [0, 1]
    assert log == [(7, 2)]


@pytest.mark.parametrize("returned", [
    Scalar.zero(0),
    (Scalar.zero(0),),
    (Scalar.zero(0), Scalar.zero(0), Scalar.zero(0)),
    [Scalar.zero(0), Scalar.zero(0)],
])
def test_a_check_must_return_its_two_sides(returned):
    with pytest.raises(TypeError):
        verdict([(0,)], lambda i: returned, lambda i: f"t{i}")

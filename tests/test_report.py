from courantcalc.report import Report, run_check
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

    def residual(i):
        if evaluated is not None:
            evaluated.append(i)
        return Scalar.const(0, values[i])

    def witness(i):
        described.append(i)
        return f"t{i}"

    report = RecordingReport()
    run_check(report, "c", ((i,) for i in range(len(values))), residual, witness)
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

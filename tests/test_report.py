"""report.Tally: the one verdict primitive that every suite counts and
records its checks through."""

from fractions import Fraction as F

import pytest

from bihermite.coeffs import FLOAT_TOL, Coeff, close
from bihermite.report import Tally


def test_zero_checks_fail():
    t = Tally()
    rep = t.report("nothing checked", {"Lmax": 0})
    assert (t.checks, t.failures) == (0, [])
    assert rep.to_json() == {"status": "fail", "summary": "nothing checked: fail", "Lmax": 0}
    assert not rep.ok


def test_failures_are_kept_in_order_with_their_where():
    t = Tally()
    assert t.check(True, {"L": 0}) is True
    assert t.check(False, {"L": 1}) is False
    assert t.check(False, "p_2") is False
    assert t.check(True, "p_3") is True
    assert not t.compare(Coeff(1), Coeff(2), {"m": 0, "n": 0})
    assert t.checks == 5
    assert t.failures == [
        {"L": 1},
        "p_2",
        {"m": 0, "n": 0, "value": "1", "expected": "2"},
    ]
    assert t.report("t", {}).status == "fail"


@pytest.mark.parametrize(
    "got, want, ok",
    [
        (Coeff(1), 1.0 + FLOAT_TOL / 2, True),
        (Coeff(1), 1.0 + 1e-6, False),
        (Coeff(F(1, 3)), 1 / 3, True),
        (Coeff(F(1, 3)), Coeff(F(1, 3), F(1, 10**30)), False),
        ([Coeff(0), Coeff(1)], [0.0, 1.0 + FLOAT_TOL / 2], True),
    ],
)
def test_compare_of_an_exact_value_with_a_float_one_follows_close(got, want, ok):
    t = Tally()
    where = {"i": 0}
    assert t.compare(got, want, where) is ok and close(got, want) is ok
    assert t.checks == 1 and where == {"i": 0}
    assert t.failures == ([] if ok else [{"i": 0, "value": str(got), "expected": str(want)}])


@pytest.mark.parametrize("ok, status", [(True, "pass"), (False, "fail")])
def test_summary_reads_title_status_note(ok, status):
    t = Tally()
    t.check(True, "first")
    t.check(ok, "second")
    rep = t.report("biorthogonality up to level 1", {"k": 1}, f" ({t.checks} pairings)")
    assert rep.status == status and rep.payload == {"k": 1}
    assert rep.summary == f"biorthogonality up to level 1: {status} (2 pairings)"

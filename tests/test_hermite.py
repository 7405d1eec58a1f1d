from fractions import Fraction as F
from math import factorial

import pytest

from bihermite import hermite
from bihermite.cli import main
from bihermite.coeffs import Coeff
from bihermite.deform import GL2, deformed_hermite
from bihermite.hermite import (
    SeriesTruncation,
    generating_series_complex,
    generating_series_real,
    hermite_operator,
    hermite_rodrigues,
    hermite_sum,
    normalizer_sq,
    orthonormality_check,
    real_hermite,
    real_orthogonality_check,
)
from bihermite.poly import BiPoly, RealPoly, inner_product

Z, ZB, ONE = BiPoly.z(), BiPoly.zbar(), BiPoly.one()


def test_explicit_sum_examples():
    assert hermite_sum(0, 0) == ONE
    assert hermite_sum(1, 1) == Z * ZB - ONE
    assert hermite_sum(2, 1) == Z**2 * ZB - 2 * Z


def test_rodrigues_examples():
    assert hermite_rodrigues(0, 0) == ONE
    # the variable-role convention: (1,0) must give z, not zbar
    assert hermite_rodrigues(1, 0) == Z
    assert hermite_rodrigues(1, 1) == Z * ZB - ONE


def test_rodrigues_swapped_roles_gives_transposed_index():
    # with the opposite variable assignment the same recurrence yields H[n,m]
    def swapped(m, n):
        p = ONE
        for _ in range(m):
            p = p.diff("z") - ZB * p
        for _ in range(n):
            p = p.diff("zbar") - Z * p
        return p * ((-1) ** (m + n))

    assert swapped(2, 1) == hermite_sum(1, 2)


def test_operator_route_examples():
    assert hermite_operator(1, 1) == Z * ZB - ONE
    assert hermite_operator(2, 0) == Z**2
    assert hermite_operator(0, 1) == ZB


def test_triple_route_equality_small():
    for total in range(7):
        for m in range(total + 1):
            n = total - m
            a = hermite_sum(m, n)
            assert a == hermite_rodrigues(m, n)
            assert a == hermite_operator(m, n)


def test_diagonal_specialization():
    for m in range(6):
        assert hermite_sum(m, 0) == BiPoly.monomial(m, 0)


def test_real_hermite_recurrence():
    x = RealPoly.x1()
    assert real_hermite(0) == RealPoly.one()
    assert real_hermite(1) == 2 * x
    assert real_hermite(3) == 8 * x**3 - 12 * x
    y = RealPoly.x2()
    assert real_hermite(2, var=1) == 4 * y**2 - 2 * RealPoly.one()


def test_orthonormality_scaled():
    rep = orthonormality_check(5)
    assert rep.ok
    assert inner_product(hermite_sum(2, 1), hermite_sum(2, 1)) == Coeff(2)
    assert inner_product(hermite_sum(2, 1), hermite_sum(1, 2)) == Coeff(0)


def test_orthonormality_check_names_each_wrong_pairing(monkeypatch):
    # one coefficient of one H raised by 1: H'[1,1] = 2 z zbar - 1 = 2 H[1,1] + H[0,0]
    real = hermite.hermite_sum
    raised = BiPoly.monomial(1, 1)
    monkeypatch.setattr(
        hermite, "hermite_sum", lambda m, n: real(m, n) + raised if (m, n) == (1, 1) else real(m, n)
    )
    rep = orthonormality_check(3)
    assert rep.status == "fail" and rep.payload["pairs"] == 100
    assert rep.payload["violations"] == [
        {"m": 0, "n": 0, "k": 1, "l": 1, "value": "1", "expected": "0"},
        {"m": 1, "n": 1, "k": 0, "l": 0, "value": "1", "expected": "0"},
        {"m": 1, "n": 1, "k": 1, "l": 1, "value": "5", "expected": "1"},
    ]


def test_orthonormality_check_reads_the_sectors_of_the_terms(monkeypatch):
    # a stray zbar in H'[2,0] = z^2 + zbar, sector -1 where m - n = 2: it
    # pairs with H[0,1] = zbar, which the index m - n alone would not pair
    real = hermite.hermite_sum
    monkeypatch.setattr(
        hermite, "hermite_sum", lambda m, n: real(m, n) + ZB if (m, n) == (2, 0) else real(m, n)
    )
    rep = orthonormality_check(2)
    assert rep.status == "fail" and rep.payload["pairs"] == 36
    assert rep.payload["violations"] == [
        {"m": 0, "n": 1, "k": 2, "l": 0, "value": "1", "expected": "0"},
        {"m": 2, "n": 0, "k": 0, "l": 1, "value": "1", "expected": "0"},
        {"m": 2, "n": 0, "k": 2, "l": 0, "value": "3", "expected": "2"},
    ]


def test_orthonormality_check_compares_a_zero_polynomial_with_itself(monkeypatch):
    # H'[1,1] = 0 pairs with nothing, itself included: its diagonal is
    # compared all the same, and every pair is still counted
    real = hermite.hermite_sum
    monkeypatch.setattr(
        hermite, "hermite_sum", lambda m, n: BiPoly.zero() if (m, n) == (1, 1) else real(m, n)
    )
    rep = orthonormality_check(3)
    assert rep.status == "fail" and rep.payload["pairs"] == 100
    assert rep.payload["violations"] == [
        {"m": 1, "n": 1, "k": 1, "l": 1, "value": "0", "expected": "1"},
    ]


def test_real_orthogonality():
    assert real_orthogonality_check(6).ok


def test_real_orthogonality_check_names_each_wrong_pairing(monkeypatch):
    # H'_1 = 2x + 1: <H'_1, H_0> = sqrt(pi), <H'_1, H'_1> = 3 sqrt(pi); both
    # sides are recorded as coefficients of sqrt(pi)
    real = hermite.real_hermite
    monkeypatch.setattr(
        hermite, "real_hermite", lambda n: real(n) + RealPoly.one() if n == 1 else real(n)
    )
    rep = real_orthogonality_check(3)
    assert rep.status == "fail"
    assert rep.payload["violations"] == [
        {"m": 0, "n": 1, "value": "1", "expected": "0"},
        {"m": 1, "n": 0, "value": "1", "expected": "0"},
        {"m": 1, "n": 1, "value": "3", "expected": "2"},
    ]


def test_real_orthogonality_rejects_a_negative_degree():
    # with nothing to compare, a pass would be vacuous
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        real_orthogonality_check(-1)


INDEXED_ROUTES = {
    "hermite_sum": hermite_sum,
    "hermite_rodrigues": hermite_rodrigues,
    "hermite_operator": hermite_operator,
    "deformed_hermite": lambda m, n: deformed_hermite(GL2(3, 1, 0, 2), m, n),
}


@pytest.mark.parametrize("route", [*INDEXED_ROUTES, "cli deform"])
@pytest.mark.parametrize("m, n", [(-1, 0), (0, -1)])
def test_negative_index_rejected(capsys, route, m, n):
    if route == "cli deform":
        assert main(["deform", str(m), str(n), "--alpha", "3/5"]) == 2
        assert capsys.readouterr().err == "error: indices must be nonnegative\n"
    else:
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            INDEXED_ROUTES[route](m, n)


def test_generating_series_complex_coefficients():
    S = generating_series_complex(6)
    assert S.coeff(0, 0) == ONE
    assert S.coeff(1, 1) == Z * ZB - ONE
    assert S.coeff(2, 0) == Z**2 * F(1, 2)
    for total in range(7):
        for k in range(total + 1):
            l = total - k
            assert S.coeff(k, l) * (factorial(k) * factorial(l)) == hermite_sum(k, l)


def test_generating_series_real_coefficients():
    S = generating_series_real(5)
    x1, x2 = RealPoly.x1(), RealPoly.x2()
    assert S.coeff(1, 0) == 2 * x1
    assert S.coeff(2, 0) == 2 * x1**2 - RealPoly.one()
    assert S.coeff(1, 1) == 4 * x1 * x2
    for total in range(6):
        for k in range(total + 1):
            l = total - k
            want = real_hermite(k, 0) * real_hermite(l, 1)
            assert S.coeff(k, l) * (factorial(k) * factorial(l)) == want


def test_series_truncation_product_consistency():
    # multiplying order-4 truncations agrees with truncating an order-6 product
    A6, B6 = generating_series_complex(6), generating_series_complex(6)
    full = (A6 * B6).terms
    A4 = generating_series_complex(4)
    prod4 = (A4 * A4).terms
    assert all(j + k <= 4 for j, k in prod4)
    for key, val in prod4.items():
        assert full[key] == val
    for key in full:
        if key[0] + key[1] <= 4:
            assert key in prod4


def test_series_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        SeriesTruncation(3, {(0, 0): ONE}).exp()


def test_normalizer():
    assert normalizer_sq(3, 2) == 12

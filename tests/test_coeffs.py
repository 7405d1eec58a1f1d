from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from bihermite.coeffs import Coeff, I, ONE, SQRT2, ZERO, close, parse_coeff, rational_sqrt
from bihermite.poly import BiPoly, RealPoly

from conftest import coeffs, nonzero_coeffs


def test_field_constants():
    assert I * I == Coeff(-1)
    assert SQRT2 * SQRT2 == Coeff(2)
    assert (I * SQRT2) ** 2 == Coeff(-2)
    assert ZERO + ONE == ONE


def test_radical_arithmetic_stays_exact():
    inv_rt2 = Coeff(0, 0, F(1, 2))  # 1/sqrt2
    assert inv_rt2 * inv_rt2 == Coeff(F(1, 2))
    assert inv_rt2 * SQRT2 == ONE
    assert SQRT2.inverse() == inv_rt2


def test_inverse_with_mixed_components():
    c = Coeff(F(2, 3), F(-1, 7), F(5, 2), F(1, 3))
    assert c * c.inverse() == ONE
    assert ONE / c == c.inverse()


def test_abs2_is_real_nonnegative():
    c = Coeff(F(3, 5), F(-4, 5))
    n = c.abs2()
    assert n.is_real() and n == ONE


def test_real_sign_exact_radical_comparison():
    assert Coeff(-1, 0, 1).real_sign() == 1  # sqrt2 - 1 > 0
    assert Coeff(-3, 0, 2).real_sign() == -1  # 2 sqrt2 - 3 < 0
    assert Coeff(0).real_sign() == 0
    with pytest.raises(ValueError):
        Coeff(0, 1).real_sign()


def test_rational_sqrt():
    assert rational_sqrt(F(16, 25)) == F(4, 5)
    assert rational_sqrt(F(49, 625)) == F(7, 25)
    assert rational_sqrt(F(1, 2)) is None
    assert rational_sqrt(-1) is None


def test_parse_coeff_exact():
    assert parse_coeff("3/5-4/5i") == Coeff(F(3, 5), F(-4, 5))
    assert parse_coeff("i") == I
    assert parse_coeff("-i") == -I
    assert parse_coeff("2") == Coeff(2)
    assert parse_coeff("-1/3+i") == Coeff(F(-1, 3), 1)
    with pytest.raises(ValueError):
        parse_coeff("0.25")  # decimals need the float backend


def test_parse_coeff_float_backend():
    c = parse_coeff("0.25+0.5i", exact=False)
    assert not c.exact
    assert c.to_complex() == 0.25 + 0.5j


def test_float_backend_folds_radical():
    c = Coeff(1, 0, 1, exact=False)
    assert c.re == pytest.approx(1 + 2**0.5)
    assert c.re2 == 0.0


def test_mixed_backend_coercion():
    exact = Coeff(F(1, 2))
    inexact = Coeff.from_complex(0.5j)
    out = exact * inexact
    assert not out.exact
    assert out.to_complex() == pytest.approx(0.25j)


def test_json_round_trip():
    c = Coeff(F(3, 5), F(-4, 5), F(1, 7), F(0))
    assert Coeff.from_json_value(c.to_json_value()) == c
    f = Coeff.from_complex(1.5 - 0.25j)
    assert Coeff.from_json_value(f.to_json_value()) == f


def test_str_formats():
    assert str(Coeff(F(3, 5), F(-4, 5))) == "3/5-4/5i"
    assert str(Coeff(0, 0, F(1, 2))) == "1/2*sqrt2"
    assert str(ZERO) == "0"


@given(coeffs, coeffs, coeffs)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(coeffs)
@settings(max_examples=60)
def test_conj_involution(c):
    assert c.conj().conj() == c
    assert c.abs2().is_real()
    assert c.abs2().real_sign() >= 0


@given(nonzero_coeffs)
@settings(max_examples=60)
def test_multiplicative_inverse(c):
    assert c * c.inverse() == ONE


def test_close_is_equality_at_zero_tolerance():
    assert close(ONE, Coeff(1), 0.0) and not close(ONE, Coeff(1, 0, 0, 1), 0.0)
    assert close([[ONE, ZERO]], [[ONE, ZERO]], 0.0) and not close([[ONE]], [[ONE, ZERO]], 0.0)
    p = BiPoly({(1, 0): ONE})
    assert close(p, BiPoly.z(), 0.0) and not close(p, RealPoly({(1, 0): ONE}), 0.0)


def test_close_is_relative_per_entry_over_the_union_of_keys():
    tol = 1e-10
    big = Coeff(1e6, exact=False)
    assert close(big, big + 1e-5, tol) and not close(big, big + 1e-3, tol)
    assert not close(Coeff(0.0, exact=False), Coeff(1e-9, exact=False), tol)
    # a key present on one side only compares against zero
    p = BiPoly({(0, 0): big, (1, 0): Coeff(1e-12, exact=False)})
    assert close(p, BiPoly({(0, 0): big}), tol)
    # the scale is each entry's own, not the largest entry of the map
    assert not close(p, BiPoly({(0, 0): big, (1, 0): Coeff(1e-9, exact=False)}), tol)
    assert not close(p, RealPoly({(0, 0): big}), tol)
    assert close([[big, ONE]], [[big, ONE + 1e-11]], tol)
    assert not close([[big, ONE]], [[big]], tol)

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihermite.coeffs import Coeff, I, ONE, SQRT2, ZERO, close, parse_coeff, rational_sqrt
from bihermite.poly import BiPoly, RealPoly

from conftest import coeffs, float_coeffs, nonzero_coeffs, radical_coeffs, small_fractions


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
    assert close(ONE, Coeff(1)) and not close(ONE, Coeff(1, 0, 0, 1))
    assert close([[ONE, ZERO]], [[ONE, ZERO]]) and not close([[ONE]], [[ONE, ZERO]])
    p = BiPoly({(1, 0): ONE})
    assert close(p, BiPoly.z()) and not close(p, RealPoly({(1, 0): ONE}))


def test_close_is_relative_per_entry_over_the_union_of_keys():
    big = Coeff(1e6, exact=False)
    assert close(big, big + 1e-5) and not close(big, big + 1e-3)
    assert not close(Coeff(0.0, exact=False), Coeff(1e-9, exact=False))
    # a key present on one side only compares against zero
    p = BiPoly({(0, 0): big, (1, 0): Coeff(1e-12, exact=False)})
    assert close(p, BiPoly({(0, 0): big}))
    # the scale is each entry's own, not the largest entry of the map
    assert not close(p, BiPoly({(0, 0): big, (1, 0): Coeff(1e-9, exact=False)}))
    assert not close(p, RealPoly({(0, 0): big}))
    assert close([[big, ONE]], [[big, ONE + 1e-11]])
    assert not close([[big, ONE]], [[big]])


@given(radical_coeffs, radical_coeffs)
@settings(max_examples=80)
def test_close_is_equality_on_exact_values(a, b):
    assert close(a, b) == (a == b)
    assert close([[a], [b]], [[b], [a]]) == (a == b)
    assert close(BiPoly({(1, 0): a, (0, 0): ONE}), BiPoly({(1, 0): b, (0, 0): ONE})) == (a == b)


def test_close_reads_a_missing_key_as_exact_zero():
    # the extra term rounds to 0.0 as a float, but is not zero
    tiny = Coeff(F(1, 10**400))
    assert tiny and abs(tiny) == 0.0
    p = BiPoly({(0, 0): ONE})
    q = p + BiPoly({(1, 0): tiny})
    assert not close(p, q) and not close(q, p)
    assert not close(ONE, ONE + tiny)
    # an exact value against a float one compares by the float rule
    assert close(Coeff(F(1, 3)), Coeff(1 / 3, exact=False)) and close(F(1, 3), 1 / 3)


# -- every product path against the general formula it replaces ------------


def reference_mul(self, other):
    """The general 16-product formula in Q(i, sqrt2)."""
    a, b = self._pair(other)
    # (x1 + y1 r)(x2 + y2 r) = (x1 x2 + 2 y1 y2) + (x1 y2 + y1 x2) r, r = sqrt2
    return Coeff._raw(
        a.re * b.re - a.im * b.im + 2 * (a.re2 * b.re2 - a.im2 * b.im2),
        a.re * b.im + a.im * b.re + 2 * (a.re2 * b.im2 + a.im2 * b.re2),
        a.re * b.re2 - a.im * b.im2 + a.re2 * b.re - a.im2 * b.im,
        a.re * b.im2 + a.im * b.re2 + a.re2 * b.im + a.im2 * b.re,
        a.exact,
    )


def reference_add(self, other):
    a, b = self._pair(other)
    return Coeff._raw(a.re + b.re, a.im + b.im, a.re2 + b.re2, a.im2 + b.im2, a.exact)


def assert_identical(got, want):
    """Same backend and slots; exact slots stay Fractions, float slots match
    by value (the sign of a zero is no part of a product)."""
    assert got.exact == want.exact
    slots = lambda c: (c.re, c.im, c.re2, c.im2)  # noqa: E731
    assert slots(got) == slots(want)
    if want.exact:
        assert all(type(x) is F for x in slots(got))
    assert repr(got) == repr(want)


@given(radical_coeffs, radical_coeffs)
@settings(max_examples=300, deadline=None)
def test_exact_product_matches_general_formula(a, b):
    assert_identical(a * b, reference_mul(a, b))
    assert_identical(a + b, reference_add(a, b))


@given(radical_coeffs | float_coeffs, st.integers(-40, 40) | st.sampled_from([0, -1]))
@settings(max_examples=200, deadline=None)
def test_int_scaling_matches_general_formula(a, n):
    want = reference_mul(a, n)
    assert_identical(a * n, want)
    assert_identical(n * a, want)


@given(radical_coeffs, st.fractions(min_value=-5, max_value=5, max_denominator=9))
@settings(max_examples=100, deadline=None)
def test_fraction_scaling_matches_general_formula(a, q):
    assert_identical(a * q, reference_mul(a, q))


@given(float_coeffs, float_coeffs)
@settings(max_examples=300, deadline=None)
def test_float_product_matches_general_formula(a, b):
    assert_identical(a * b, reference_mul(a, b))
    assert_identical(a + b, reference_add(a, b))


@given(radical_coeffs, float_coeffs, st.floats(-4, 4) | st.sampled_from([0.0, -0.0]))
@settings(max_examples=200, deadline=None)
def test_mixed_backend_product_matches_general_formula(a, b, x):
    assert_identical(a * b, reference_mul(a, b))
    assert_identical(b * a, reference_mul(b, a))
    assert_identical(a * x, reference_mul(a, x))
    assert_identical(a * complex(x, 1.5), reference_mul(a, complex(x, 1.5)))


def test_float_json_writes_zeros_unsigned():
    # a negated float carries -0.0 radical slots, and a product may leave a
    # signed zero; JSON writes every float zero as 0.0
    a, b = Coeff(0.0, 0.8, exact=False), -Coeff(0.0, 0.8, exact=False)
    for c in (a * b, Coeff.from_complex(complex(-0.0, -0.0)), -Coeff(0.0, exact=False)):
        value = c.to_json_value()
        assert [repr(x) for x in value.values()] == [repr(x + 0.0) for x in value.values()]
        assert "-0.0" not in json.dumps(value)
    assert (a * b).to_json_value()["im"] == 0.0


def test_equality_with_a_float_beyond_its_range_is_false():
    big = Coeff(10**400)
    assert not big == 1.0 and big != 1.0
    assert not close(big, Coeff(1.0, exact=False)) and not close(Coeff(1.0, exact=False), big)
    assert big == Coeff(10**400) and close(big, Coeff(10**400))


# -- hashing ------------------------------------------------------------------


def twins(c):
    """Values equal to c on its own backend or as a plain number."""
    out = [c, -(-c)]
    if c.exact and c.is_rational() and c.re.denominator == 1:
        out.append(int(c.re))
    if not c.exact and not c.im and c.re.is_integer():
        out.append(int(c.re))
    return out


def float_represents(c) -> bool:
    """Whether c has a float twin: no radical part and float real and
    imaginary parts."""
    if not c.exact:
        return True
    return not c.re2 and not c.im2 and all(F(float(x)) == x for x in (c.re, c.im))


@given(
    radical_coeffs | float_coeffs | st.integers(-3, 3).map(Coeff),
    radical_coeffs | float_coeffs | st.integers(-3, 3).map(Coeff) | st.integers(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_equal_values_hash_equally(a, b):
    for x in twins(a):
        assert x == a and hash(x) == hash(a)
    # rounded twins equal a only when a float represents it, else are close
    for x in (Coeff.from_complex(a.to_complex()), a.to_float()):
        if float_represents(a):
            assert x == a and hash(x) == hash(a)
        else:
            assert x != a and close(x, a)
    if a == b:
        assert hash(a) == hash(b)


def test_equal_across_backends_and_ints_hash_equally():
    pairs = [
        (Coeff(1), Coeff(1.0, exact=False)),
        (Coeff(1), 1),
        (Coeff(-2, 3), Coeff(-2.0, 3.0, exact=False)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    # no float represents 1/2 + 3/4 sqrt2: its rounded twin is close, not equal
    a = Coeff(F(1, 2), 0, F(3, 4))
    assert a != a.to_float() and close(a, a.to_float())
    assert len({Coeff(1), Coeff(1.0, exact=False), 1}) == 1
    # beyond the float range the exact slots are hashed instead
    assert len({Coeff(10**400), Coeff(10**400), Coeff(0, 10**400)}) == 2


def test_a_coeff_and_its_fraction_are_one_set_member():
    assert len({Coeff(F(1, 3)), F(1, 3)}) == 1
    assert Coeff(F(1, 3)) != 1 / 3 and close(Coeff(F(1, 3)), 1 / 3)
    assert hash(Coeff(F(2, 3), F(-1, 7))) == hash(Coeff(F(2, 3), F(-1, 7)))
    assert hash(Coeff(0.5, -3.0, exact=False)) == hash(complex(0.5, -3.0))
    assert len({Coeff(0.5, -3.0, exact=False), Coeff(F(1, 2), -3), complex(0.5, -3.0)}) == 1


def _number(q: F, form: str):
    return {
        "int": int(q) if q.denominator == 1 else q,
        "fraction": q,
        "float": float(q),
        "exact": Coeff(q),
        "float coeff": Coeff(q, exact=False),
        "complex exact": Coeff(q, q),
        "complex float": Coeff(q, q, exact=False),
        "radical": Coeff(0, 0, q),
    }[form]


FORMS = st.sampled_from(
    ["int", "fraction", "float", "exact", "float coeff", "complex exact", "complex float", "radical"]
)


@given(
    st.sampled_from([F(0), F(1), F(-2), F(1, 2), F(1, 3)]) | small_fractions,
    FORMS,
    FORMS,
    FORMS,
)
@settings(max_examples=300, deadline=None)
def test_equality_is_transitive_across_backends(q, fa, fb, fc):
    # one rational in three forms, some of which no float represents
    a, b, c = _number(q, fa), _number(q, fb), _number(q, fc)
    if a == b and b == c:
        assert a == c
    for x, y in ((a, b), (b, c), (a, c)):
        if x == y:
            assert hash(x) == hash(y)

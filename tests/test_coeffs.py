import functools
import json
import random
import sys
from fractions import Fraction as F
from math import gcd, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihermite.coeffs import (
    Coeff,
    I,
    ONE,
    SQRT2,
    ZERO,
    _sum_products,
    close,
    parse_coeff,
    rational_sqrt,
)
from bihermite.linalg import mat_mul
from bihermite.poly import BiPoly, RealPoly
from bihermite.weyl import WeylOp

from conftest import coeffs, float_coeffs, nonzero_coeffs, radical_coeffs, small_fractions

SQRT2_F = sqrt(2.0)


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
    # each token is rounded once, as float() rounds it
    cases = [
        ("0.1", 0.1), ("1e2", 100.0), ("1/3", 1 / 3), ("0.1+0.2", 0.1 + 0.2),
        # an exponent's sign stays inside its number
        ("1e-3", 1e-3), ("2.5-1e-3i", 2.5 - 1e-3j), ("-1E+2i", -100j),
    ]
    for text, value in cases:
        assert parse_coeff(text, exact=False).to_complex() == value
    assert parse_coeff("-2.5i", exact=False).to_complex() == -2.5j


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
    n = c * c.conj()
    assert n.is_real() and n.real_sign() >= 0


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


# -- every fast path against the Fraction-slot arithmetic it replaces ---------
#
# The reference is the arithmetic of the earlier layout, four Fraction slots
# per exact value: a value is a tuple (re, im, re2, im2, exact) of Fractions,
# or of floats with zero radical slots, combined by the general formulas.

_MOD = 1 << sys.hash_info.width


def ref(x) -> tuple:
    """x as reference slots, lifted the way Coeff.lift lifts it."""
    if isinstance(x, tuple):
        return x
    if isinstance(x, Coeff):
        return (x.re, x.im, x.re2, x.im2, x.exact)
    if isinstance(x, (int, F)):
        return (F(x), F(0), F(0), F(0), True)
    z = complex(x)
    return (z.real, z.imag, 0.0, 0.0, False)


def ref_float(s) -> tuple:
    re, im, re2, im2, exact = s
    if not exact:
        return s
    return (float(re) + SQRT2_F * float(re2), float(im) + SQRT2_F * float(im2), 0.0, 0.0, False)


def ref_pair(x, y):
    s, t = ref(x), ref(y)
    return (s, t) if s[4] == t[4] else (ref_float(s), ref_float(t))


def reference_add(x, y) -> tuple:
    s, t = ref_pair(x, y)
    return (*(u + v for u, v in zip(s[:4], t[:4])), s[4])


def ref_neg(x) -> tuple:
    re, im, re2, im2, exact = ref(x)
    return (-re, -im, -re2, -im2, exact)


def ref_conj(x) -> tuple:
    re, im, re2, im2, exact = ref(x)
    return (re, -im, re2, -im2, exact)


def reference_mul(x, y) -> tuple:
    """The general 16-product formula in Q(i, sqrt2)."""
    (ar, ai, ar2, ai2, exact), (br, bi, br2, bi2, _) = ref_pair(x, y)
    # (x1 + y1 r)(x2 + y2 r) = (x1 x2 + 2 y1 y2) + (x1 y2 + y1 x2) r, r = sqrt2
    return (
        ar * br - ai * bi + 2 * (ar2 * br2 - ai2 * bi2),
        ar * bi + ai * br + 2 * (ar2 * bi2 + ai2 * br2),
        ar * br2 - ai * bi2 + ar2 * br - ai2 * bi,
        ar * bi2 + ai * br2 + ar2 * bi + ai2 * br,
        exact,
    )


def ref_inverse(x) -> tuple:
    re, im, re2, im2, exact = ref(x)
    if not exact:
        z = 1.0 / complex(re, im)
        return (z.real, z.imag, 0.0, 0.0, False)
    # 1/(x + y r) = (x - y r)/(x^2 - 2 y^2), the denominator in Q(i)
    dre = re * re - im * im - 2 * (re2 * re2 - im2 * im2)
    dim = 2 * re * im - 4 * re2 * im2
    n = dre * dre + dim * dim
    return (
        (re * dre + im * dim) / n,
        (im * dre - re * dim) / n,
        (-re2 * dre - im2 * dim) / n,
        (-im2 * dre + re2 * dim) / n,
        True,
    )


def ref_pow(x, n: int) -> tuple:
    """Square and multiply, in the order Coeff.__pow__ multiplies."""
    if n < 0:
        return ref_pow(ref_inverse(x), -n)
    base = ref(x)
    out = (F(1), F(0), F(0), F(0), True) if base[4] else (1.0, 0.0, 0.0, 0.0, False)
    while n:
        if n & 1:
            out = reference_mul(out, base)
        base = reference_mul(base, base)
        n >>= 1
    return out


def ref_hash(s) -> int:
    re, im, re2, im2, _ = s
    if re2 or im2:
        return hash((re, im, re2, im2))
    if not im:
        return hash(re)
    h = (hash(re) + sys.hash_info.imag * hash(im)) % _MOD
    h -= _MOD if h >= _MOD // 2 else 0
    return -2 if h == -1 else h


def assert_identical(got, want):
    """got has want's backend and components (exact ones as Fractions, float
    ones by value: the sign of a zero is no part of a result), is in
    canonical form, and converts, prints and hashes like want."""
    re, im, re2, im2, exact = want
    assert got.exact == exact
    slots = (got.re, got.im, got.re2, got.im2)
    assert slots == (re, im, re2, im2)
    if exact:
        assert all(type(x) is F for x in slots)
        assert all(type(x) is int for x in (got.a, got.b, got.c, got.d, got.q))
        assert got.q > 0 and gcd(got.a, got.b, got.c, got.d, got.q) == 1
        assert got or got.q == 1
        # to_complex rounds each component like float(Fraction): bit for bit
        old = complex(float(re) + SQRT2_F * float(re2), float(im) + SQRT2_F * float(im2))
        assert repr(got.to_complex()) == repr(old) == repr(got.to_float().to_complex())
    else:
        assert got.q == 1 and got.c == got.d == 0.0
        assert got.to_complex() == complex(re, im)
    assert hash(got) == ref_hash(want)
    assert repr(got) == repr(Coeff(re, im, re2, im2, exact=exact))


exact_coeffs = radical_coeffs | coeffs
scalars = st.integers(-40, 40) | st.sampled_from([0, -1]) | small_fractions
float_scalars = st.floats(-4, 4) | st.sampled_from([0.0, -0.0])
operands = exact_coeffs | float_coeffs | scalars | float_scalars | float_scalars.map(
    lambda x: complex(x, 1.5)
)


@given(exact_coeffs | float_coeffs, operands)
@settings(max_examples=400, deadline=None)
def test_sums_match_reference(a, b):
    assert_identical(a + b, reference_add(a, b))
    assert_identical(b + a, reference_add(b, a))
    assert_identical(a - b, reference_add(a, ref_neg(b)))
    assert_identical(b - a, reference_add(b, ref_neg(a)))
    assert_identical(-a, ref_neg(a))
    assert_identical(a.conj(), ref_conj(a))


@given(exact_coeffs | float_coeffs, operands)
@settings(max_examples=400, deadline=None)
def test_products_match_reference(a, b):
    assert_identical(a * b, reference_mul(a, b))
    assert_identical(b * a, reference_mul(b, a))


invertible = radical_coeffs.filter(bool) | float_coeffs.filter(lambda c: abs(c) > 1e-3)


@given(invertible, st.integers(-3, 5))
@settings(max_examples=300, deadline=None)
def test_inverse_and_powers_match_reference(a, n):
    assert_identical(a.inverse(), ref_inverse(a))
    assert_identical(a**n, ref_pow(a, n))
    if a.exact:
        assert_identical(ONE / a, ref_inverse(a))


def test_constructor_reduces_to_one_denominator():
    c = Coeff(F(2, 4), "-1/6", F(3, 9), 2)
    assert (c.a, c.b, c.c, c.d, c.q) == (3, -1, 2, 12, 6)
    assert (c.re, c.im, c.re2, c.im2) == (F(1, 2), F(-1, 6), F(1, 3), F(2))
    assert (ZERO.a, ZERO.q) == (0, 1) and (Coeff(F(0, 7)).q, (ONE - ONE).q) == (1, 1)
    assert Coeff(0.5) == Coeff(F(1, 2)) and Coeff(0.5).q == 2
    f = Coeff(1, 2, 3, 4, exact=False)
    assert (f.c, f.d, f.q) == (0.0, 0.0, 1)
    with pytest.raises(AttributeError):
        c.re = F(1)


def test_to_complex_rounds_like_fraction_beyond_double_precision():
    for x in (F(10**30 + 1, 3**40), F(-(2**80) + 7, 2**81 - 1), F(1, 10**400), F(3**200, 7)):
        c = Coeff(x, -x, x / 3, x * 5)
        want = complex(
            float(c.re) + SQRT2_F * float(c.re2), float(c.im) + SQRT2_F * float(c.im2)
        )
        assert repr(c.to_complex()) == repr(want)
    with pytest.raises(OverflowError):
        Coeff(10**400).to_complex()


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


def test_a_scalar_and_a_sparse_map_fall_through_to_the_map():
    # Coeff defers to SparseMap.__rmul__/__radd__ instead of raising
    two, z, a1 = Coeff(2), BiPoly.z(), WeylOp.a(1)
    assert two * z == z * two and two + z == z + two
    assert two * a1 == a1 * two
    for bad in (lambda: two + "x", lambda: two - "x", lambda: two * "x"):
        with pytest.raises(TypeError):
            bad()


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


# -- the sum-of-products kernel against the chain it replaced ----------------


def chain_sum(triples):
    """acc = acc + x * y * w from the first product: the reference route."""
    acc = None
    for x, y, w in triples:
        v = x * y * w
        acc = v if acc is None else acc + v
    return acc


def same_slots(got, want):
    """Equal slot by slot with ==, and float numerators with the same bits."""
    assert got.exact == want.exact
    assert (got.a, got.b, got.c, got.d, got.q) == (want.a, want.b, want.c, want.d, want.q)
    if not got.exact:
        assert (got.a.hex(), got.b.hex()) == (want.a.hex(), want.b.hex())


def _big_fraction(rng):
    # 40-digit numerators over unequal denominators, some shared
    den = rng.choice([1, 2, 3, 5, 7, 12, 25, 49, 625, 2401, 10**6 + 3, rng.randrange(1, 10**9)])
    return F(rng.randrange(-(10**40), 10**40), den)


def _random_coeff(rng, kind):
    if kind == "float":
        return Coeff(rng.uniform(-8, 8), rng.uniform(-8, 8), exact=False)
    parts = [_big_fraction(rng) if rng.random() < 0.8 else F(0) for _ in range(4)]
    if kind == "qi":
        parts[2:] = [0, 0]
    return Coeff(*parts)


def _random_triples(rng, kinds, n):
    return [
        (_random_coeff(rng, rng.choice(kinds)), _random_coeff(rng, rng.choice(kinds)),
         rng.choice([1, 1, 2, 6, 24, 720, 40320, 3628800, 6227020800, 355687428096000]))
        for _ in range(n)
    ]  # fmt: skip


@pytest.mark.parametrize(
    "kinds",
    [("qi",), ("radical",), ("qi", "radical"), ("float",), ("float", "qi"), ("float", "radical")],
    ids=["Q(i)", "Q(i, sqrt2)", "both exact", "float", "mixed Q(i)", "mixed radical"],
)
@pytest.mark.parametrize("seed", range(8))
def test_sum_of_products_matches_the_chain(kinds, seed):
    rng = random.Random(f"sum of products {kinds} {seed}")
    for n in (1, 2, 3, 7, 20):
        triples = _random_triples(rng, kinds, n)
        same_slots(_sum_products(triples), chain_sum(triples))


def test_sum_of_products_cancels_to_the_reduced_zero():
    x, y = Coeff(F(3, 7), F(-2, 5), F(1, 11)), Coeff(F(5, 9), 1, 0, F(-4, 13))
    got = _sum_products([(x, y, 6), (x, -y, 2), (-x, y, 4)])
    assert got == ZERO and (got.a, got.b, got.c, got.d, got.q) == (0, 0, 0, 0, 1)
    assert _sum_products([]) == ZERO and _sum_products([]).exact


# -- the direct difference and the kernel matrix product against the routes
# -- they replaced ------------------------------------------------------------


@given(exact_coeffs | float_coeffs, operands)
@settings(max_examples=400, deadline=None)
def test_difference_is_the_sum_with_the_negation(a, b):
    # a - b once returned a + -b, with b lifted first
    same_slots(a - b, a + -Coeff.lift(b))


def test_difference_over_unequal_large_denominators():
    rng = random.Random("difference")
    for kind in ("qi", "radical", "float"):
        for _ in range(50):
            x, y = _random_coeff(rng, kind), _random_coeff(rng, rng.choice(["qi", "radical"]))
            same_slots(x - y, x + -y)
            same_slots(y - x, y + -x)


def chain_mat_mul(a, b):
    """a b with each entry the chain acc = acc + a[i][k] b[k][j] from the
    first product: the route the kernel replaced."""
    return [
        [functools.reduce(lambda acc, xy: acc + xy[0] * xy[1], pairs[1:], pairs[0][0] * pairs[0][1])
         for pairs in (list(zip(row, col)) for col in zip(*b))]
        for row in a
    ]  # fmt: skip


MATRIX_ENTRIES = {
    "exact": radical_coeffs,
    "float": float_coeffs,
    "mixed": radical_coeffs | float_coeffs,
}


@given(st.sampled_from(sorted(MATRIX_ENTRIES)), st.tuples(*[st.integers(1, 4)] * 3), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_mat_mul_is_the_chain(backend, shape, data):
    n, m, p = shape
    entries = MATRIX_ENTRIES[backend]

    def matrix(rows, cols):
        row = st.lists(entries, min_size=cols, max_size=cols)
        return data.draw(st.lists(row, min_size=rows, max_size=rows))

    a, b = matrix(n, m), matrix(m, p)
    got, want = mat_mul(a, b), chain_mat_mul(a, b)
    assert [len(row) for row in got] == [p] * n
    for got_row, want_row in zip(got, want):
        for x, y in zip(got_row, want_row):
            same_slots(x, y)


@pytest.mark.parametrize("kinds", [("qi",), ("radical",), ("float",), ("float", "radical")])
def test_kernel_mat_mul_is_the_chain_on_large_entries(kinds):
    rng = random.Random(f"mat_mul {kinds}")
    a = [[_random_coeff(rng, rng.choice(kinds)) for _ in range(5)] for _ in range(3)]
    b = [[_random_coeff(rng, rng.choice(kinds)) for _ in range(4)] for _ in range(5)]
    for got_row, want_row in zip(mat_mul(a, b), chain_mat_mul(a, b)):
        for x, y in zip(got_row, want_row):
            same_slots(x, y)

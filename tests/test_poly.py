import math
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings

from bihermite.coeffs import Coeff
from bihermite.poly import BiPoly, RealPoly, gram, inner_product, real_inner_product

from conftest import bipolys, dense_gram

Z, ZB, ONE = BiPoly.z(), BiPoly.zbar(), BiPoly.one()


def naive_mul(p: BiPoly, q: BiPoly) -> dict:
    """Independent convolution oracle on (Fraction, Fraction) pairs."""
    out = {}
    for (a, b), cp in p.terms.items():
        for (c, d), cq in q.terms.items():
            re = cp.re * cq.re - cp.im * cq.im
            im = cp.re * cq.im + cp.im * cq.re
            r0, i0 = out.get((a + c, b + d), (F(0), F(0)))
            out[(a + c, b + d)] = (r0 + re, i0 + im)
    return {k: v for k, v in out.items() if v != (F(0), F(0))}


def as_pairs(p: BiPoly) -> dict:
    return {k: (c.re, c.im) for k, c in p.terms.items()}


def test_product_monomials():
    assert Z * ZB == BiPoly.monomial(1, 1)


def test_product_difference_of_squares():
    assert (Z - ONE) * (Z + ONE) == Z**2 - ONE


def test_product_matches_convolution_oracle():
    p = Z * ZB - ONE
    got = p * p
    assert as_pairs(got) == naive_mul(p, p)
    assert got == Z**2 * ZB**2 - 2 * Z * ZB + ONE


def test_derivatives():
    assert (Z**2 * ZB).diff("z") == 2 * Z * ZB
    assert (Z**2).diff("zbar") == BiPoly.zero()
    assert (Z**2 * ZB**2).diff("z", 2).diff("zbar") == 4 * ZB
    with pytest.raises(ValueError):
        Z.diff("w")


def test_inner_product_frozen_values():
    assert inner_product(ONE, ONE) == Coeff(1)
    # <z, z> = 1: the quadrature oracle in test_acceptance cross-checks this
    assert inner_product(Z, Z) == Coeff(1)
    # moment rule by hand: 2! - 1! - 1! + 1 = 1
    p = Z * ZB - ONE
    assert inner_product(p, p) == Coeff(1)
    assert inner_product(Z, ZB) == Coeff(0)


def test_inner_product_conjugate_linearity():
    i = Coeff(0, 1)
    p, q = Z + ONE, ZB - ONE
    assert inner_product(p * i, q) == inner_product(p, q) * (-i)
    assert inner_product(p, q * i) == inner_product(p, q) * i


def naive_inner(p: BiPoly, q: BiPoly, exact: bool):
    """Independent all-pairs moment-rule oracle: (re, im) Fractions when
    exact, a Python complex otherwise; None when no pair of terms pairs."""
    out = None
    for (a, b), cp in p.terms.items():
        for (c, d), cq in q.terms.items():
            if b + c != a + d:
                continue
            f = factorial(a + d)
            if exact:
                # conj(cp) * cq * (a+d)!
                re = (cp.re * cq.re + cp.im * cq.im) * f
                im = (cp.re * cq.im - cp.im * cq.re) * f
                out = (re, im) if out is None else (out[0] + re, out[1] + im)
            else:
                v = complex(cp.re, cp.im).conjugate() * complex(cq.re, cq.im) * f
                out = v if out is None else out + v
    return out


def random_bipoly(rng: random.Random, exact: bool) -> BiPoly:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        key = (rng.randint(0, 4), rng.randint(0, 4))
        re, im = F(rng.randint(-5, 5), rng.randint(1, 4)), F(rng.randint(-5, 5), rng.randint(1, 4))
        terms[key] = Coeff(re, im) if exact else Coeff(float(re), float(im), exact=False)
    return BiPoly(terms)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("seed", range(4))
def test_gram_matches_all_pairs_oracle(exact, seed):
    rng = random.Random(seed)
    ps = [random_bipoly(rng, exact) for _ in range(rng.randint(1, 5))] + [BiPoly.zero()]
    qs = [random_bipoly(rng, exact) for _ in range(rng.randint(1, 5))] + [BiPoly.zero(), ps[0]]
    rng.shuffle(ps)
    # <p, p> of a nonzero p pairs; the zero polynomial pairs with nothing
    sparse = gram(ps, qs)
    rows = dense_gram(sparse, len(qs))
    assert len(rows) == len(ps) and all(len(row) == len(qs) for row in rows)
    unpaired = paired = 0
    for p, entries, row in zip(ps, sparse, rows):
        for j, (q, got) in enumerate(zip(qs, row)):
            assert inner_product(p, q) == got
            want = naive_inner(p, q, exact)
            # a row holds exactly the pairs with a pairing term
            assert (j in entries) == (want is not None)
            if want is None:
                unpaired += 1
                assert got.exact and got == Coeff(0)
            elif exact:
                paired += 1
                assert got.exact and (got.re, got.im, got.re2, got.im2) == (*want, 0, 0)
            else:
                paired += 1
                assert not got.exact
                assert abs(got.to_complex() - want) <= 1e-12 * max(1.0, abs(want))
    assert unpaired and paired


def chain_gram(ps, qs) -> list:
    """gram's route before its entries went through one kernel: each pairing
    product conj(p_c) q_c (a+d)! added to the entry one at a time, over every
    pair; None where no pair of terms pairs."""
    rows = []
    for p in ps:
        row = []
        for q in qs:
            acc = None
            for (a, b), pc in p.terms.items():
                for (c, d), qc in q.terms.items():
                    if a - b == c - d:
                        v = pc.conj() * qc * factorial(a + d)
                        acc = v if acc is None else acc + v
            row.append(acc)
        rows.append(row)
    return rows


def assert_gram_is_the_chain(ps, qs):
    """gram(ps, qs) holds an entry exactly where the chain pairs a term, and
    each entry is the chain's value, float bits and signed zeros included."""
    sparse = gram(ps, qs)
    chain = chain_gram(ps, qs)
    for entries, want_row in zip(sparse, chain, strict=True):
        assert list(entries) == [j for j, want in enumerate(want_row) if want is not None]
    for got_row, want_row in zip(dense_gram(sparse, len(qs)), chain, strict=True):
        for got, want in zip(got_row, want_row, strict=True):
            want = Coeff(0) if want is None else want
            assert got.exact == want.exact
            assert (got.a, got.b, got.c, got.d, got.q) == (want.a, want.b, want.c, want.d, want.q)
            if not got.exact:  # the float entries keep the chain's bits
                assert (got.a.hex(), got.b.hex()) == (want.a.hex(), want.b.hex())
    return sparse


def _kernel_coeff(rng: random.Random, kind: str) -> Coeff:
    if kind == "float":
        return Coeff(rng.uniform(-5, 5), rng.uniform(-5, 5), exact=False)
    den = rng.choice([1, 3, 5, 25, 49, 2401, rng.randrange(1, 10**6)])
    slots = [F(rng.randrange(-(10**40), 10**40), den) for _ in range(4)]
    return Coeff(*slots) if kind == "radical" else Coeff(*slots[:2])


@pytest.mark.parametrize(
    "kinds",
    [("qi",), ("radical",), ("float",), ("qi", "float"), ("radical", "float")],
    ids=["Q(i)", "Q(i, sqrt2)", "float", "mixed Q(i)", "mixed radical"],
)
@pytest.mark.parametrize("seed", range(4))
def test_gram_matches_the_per_product_chain(kinds, seed):
    rng = random.Random(f"gram chain {kinds} {seed}")

    def poly():
        keys = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 8))}
        return BiPoly({key: _kernel_coeff(rng, rng.choice(kinds)) for key in keys})

    ps = [poly() for _ in range(5)] + [BiPoly.zero()]
    qs = [poly() for _ in range(5)] + [ps[0]]
    rows = assert_gram_is_the_chain(ps, qs)
    # the zero polynomial pairs with nothing: its row is empty, densely the exact zero
    assert rows[-1] == {}
    assert all(c.exact and c == 0 and c.q == 1 for c in dense_gram(rows, len(qs))[-1])


def test_gram_pairs_every_sector_of_a_polynomial():
    # terms in the sectors a-b = 1, -1, 0 and 2: each row pairs every column
    # that shares one of its sectors, whichever term of either side holds it
    f = lambda re, im=0.0: Coeff(re, im, exact=False)  # noqa: E731
    ps = [
        BiPoly({(1, 0): f(1.0), (2, 1): f(-0.5, -0.0)}),  # sector 1 alone
        BiPoly({(0, 1): f(-0.0, 1.0), (1, 1): f(2.0)}),  # sectors -1 and 0
        BiPoly({(3, 1): f(0.25, -2.0)}),  # sector 2 alone
    ]
    qs = [
        BiPoly({(0, 0): f(1.0), (1, 0): f(1.0, 0.0)}),  # sectors 0 and 1
        BiPoly({(2, 0): f(3.0), (1, 2): f(0.0, -1.0)}),  # sectors 2 and -1
        BiPoly({(4, 0): f(1.0)}),  # sector 4: pairs with nothing
    ]
    rows = assert_gram_is_the_chain(ps, qs)
    assert [list(row) for row in rows] == [[0], [0, 1], [1]]
    # <z - z^2 zbar/2, 1 + z> = 1 - 2!/2 pairs: a float zero, present; and
    # <i zbar + 2 z zbar, 3 z^2 - i z zbar^2> = -2 - 0i keeps its signed zero
    zero, signed = rows[0][0], rows[1][1]
    assert not zero.exact and zero == 0
    assert (signed.a, math.copysign(1, signed.b)) == (-2.0, -1.0)


def test_gram_of_empty_lists():
    assert gram([], [ONE, Z]) == []
    assert gram([ONE, Z], []) == [{}, {}]


def test_conjugate_swaps_variables():
    p = BiPoly({(2, 1): Coeff(0, 1)})
    assert p.conjugate() == BiPoly({(1, 2): Coeff(0, -1)})
    assert p.conjugate().conjugate() == p


def test_real_inner_product_frozen_values():
    one = RealPoly.one()
    x = RealPoly.x1()
    h1 = 2 * x
    h2 = 4 * x**2 - 2 * one
    # the coefficients of sqrt(pi), exact
    assert real_inner_product(one, one) == Coeff(1)
    assert real_inner_product(h1, h1) == Coeff(2)
    assert real_inner_product(h2, h1) == Coeff(0)
    assert all(real_inner_product(p, h1).exact for p in (one, h1, h2))


def test_real_inner_product_needs_common_variable():
    with pytest.raises(ValueError):
        real_inner_product(RealPoly.x1(), RealPoly.x2())


def test_real_poly_rejects_complex_coefficients():
    with pytest.raises(ValueError):
        RealPoly({(1, 0): Coeff(0, 1)})


def test_canonical_term_order():
    p = Z**2 + ZB + Z * ZB + ONE
    keys = [k for k, _ in p.sorted_terms()]
    assert keys == [(0, 0), (0, 1), (1, 1), (2, 0)]


def test_json_round_trip():
    p = BiPoly({(2, 1): Coeff(1), (1, 0): Coeff(F(-2, 3), F(1, 5))})
    assert BiPoly.from_json_dict(p.to_json_dict()) == p
    r = RealPoly({(3, 0): Coeff(8), (1, 0): Coeff(-12)})
    assert RealPoly.from_json_dict(r.to_json_dict()) == r


def test_pretty():
    assert (Z**2 * ZB - 2 * Z).pretty() == "z^2 z~ - 2 z"
    assert BiPoly.zero().pretty() == "0"


@given(bipolys, bipolys, bipolys)
@settings(max_examples=50)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(bipolys, bipolys)
@settings(max_examples=50)
def test_inner_product_conjugate_symmetry(p, q):
    assert inner_product(p, q) == inner_product(q, p).conj()


@given(bipolys)
@settings(max_examples=50)
def test_inner_product_positivity(p):
    n = inner_product(p, p)
    assert n.is_real()
    assert n.real_sign() >= 0
    assert (n.real_sign() == 0) == (not p)


@given(bipolys, bipolys)
@settings(max_examples=50)
def test_lowering_raising_adjointness(p, q):
    lhs = inner_product(p.diff("z"), q)
    rhs = inner_product(p, Z * q - q.diff("zbar"))
    assert lhs == rhs


@given(bipolys)
@settings(max_examples=50)
def test_json_round_trip_property(p):
    assert BiPoly.from_json_dict(p.to_json_dict()) == p

"""Differential oracle: polynomial, operator and series arithmetic against sympy.

The oracle shares no code with the library.  Library objects are read only
through their ``terms`` maps and the four rational slots of each coefficient;
sympy realises the operators as differential operators on (z, zbar):

    a1 = d/dz,   ad1 = z - d/dzbar,   a2 = d/dzbar,   ad2 = zbar - d/dz.
"""

from math import factorial

import pytest
from hypothesis import given, settings

sympy = pytest.importorskip("sympy")

from bihermite.hermite import generating_series_complex  # noqa: E402
from bihermite.weyl import commutator  # noqa: E402

from conftest import bipolys, weylops  # noqa: E402

z, zb, u, ub = sympy.symbols("z zbar u ubar")


def scalar(c):
    """A library coefficient as an exact sympy number."""
    q = sympy.Rational
    return q(c.re) + sympy.I * q(c.im) + sympy.sqrt(2) * (q(c.re2) + sympy.I * q(c.im2))


def expr(p):
    """A polynomial in (z, zbar) as a sympy expression."""
    return sympy.Add(*(scalar(c) * z**a * zb**b for (a, b), c in p.terms.items()))


def act(op, f):
    """Apply a normal-ordered operator to the expression f, rightmost letter first."""
    out = 0
    for (c1, c2, d1, d2), c in op.terms.items():
        g = sympy.diff(f, z, d1, zb, d2) if (d1 or d2) else f
        for _ in range(c2):
            g = zb * g - sympy.diff(g, z)
        for _ in range(c1):
            g = z * g - sympy.diff(g, zb)
        out += scalar(c) * g
    return out


def same(lhs, rhs) -> bool:
    return sympy.expand(lhs - rhs) == 0


@given(bipolys, bipolys)
@settings(max_examples=30, deadline=None)
def test_bipoly_ring_operations(p, q):
    assert same(expr(p + q), expr(p) + expr(q))
    assert same(expr(p - q), expr(p) - expr(q))
    assert same(expr(p * q), expr(p) * expr(q))


@given(bipolys)
@settings(max_examples=30, deadline=None)
def test_bipoly_derivatives(p):
    assert same(expr(p.diff("z")), sympy.diff(expr(p), z))
    assert same(expr(p.diff("zbar", 2)), sympy.diff(expr(p), zb, 2))


@given(weylops, weylops, bipolys)
@settings(max_examples=25, deadline=None)
def test_operator_product_and_commutator(a, b, p):
    f = expr(p)
    ab, ba = act(a, act(b, f)), act(b, act(a, f))
    assert same(expr((a * b).apply(p)), ab)
    assert same(expr(a.apply(b.apply(p))), ab)
    assert same(expr(commutator(a, b).apply(p)), ab - ba)


def test_complex_generating_series():
    N = 4
    gen = sympy.exp(u * z + ub * zb - u * ub)
    series = generating_series_complex(N)
    for j in range(N + 1):
        for k in range(N + 1 - j):
            want = sympy.diff(gen, u, j, ub, k).subs({u: 0, ub: 0}) / (factorial(j) * factorial(k))
            assert same(expr(series.coeff(j, k)), want), (j, k)
    assert all(j + k <= N for j, k in series.terms)

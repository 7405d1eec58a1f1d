"""Differential oracle: polynomial, operator and series arithmetic, the
Hermite and deformed Hermite families, and characteristic polynomials,
against sympy.

The oracle shares no code with the library.  Library objects are read only
through their ``terms`` maps and the four rational slots of each coefficient;
sympy realises the operators as differential operators on (z, zbar):

    a1 = d/dz,   ad1 = z - d/dzbar,   a2 = d/dzbar,   ad2 = zbar - d/dz.
"""

import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import given, settings

sympy = pytest.importorskip("sympy")

from bihermite import deform  # noqa: E402
from bihermite.coeffs import Coeff, close  # noqa: E402
from bihermite.deform import GL2, deformed_hermite, eigenvalue_structure_check, rep_matrix  # noqa: E402
from bihermite.hermite import generating_series_complex, hermite_sum  # noqa: E402
from bihermite.linalg import _charpoly_cleared, _newton_sums, _radical, _values, charpoly  # noqa: E402
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


def test_hermite_family_by_rodrigues_formula():
    # H[m,n] = (-1)^(m+n) e^(z zbar) d^m/dzbar^m d^n/dz^n e^(-z zbar), with z
    # and zbar independent symbols
    w = sympy.exp(-z * zb)
    for total in range(7):
        for m in range(total + 1):
            n = total - m
            want = (-1) ** total * sympy.exp(z * zb) * sympy.diff(w, zb, m, z, n)
            assert same(expr(hermite_sum(m, n)), sympy.simplify(want)), (m, n)


def test_deformed_family_by_raising_operators():
    # g = [[1 + sqrt2, i], [1/2, -1 + sqrt2 i]], written out for each side
    r2 = sympy.sqrt(2)
    s11, s12, s21, s22 = 1 + r2, sympy.I, sympy.Rational(1, 2), -1 + r2 * sympy.I
    g = GL2(Coeff(1, 0, 1), Coeff(0, 1), Coeff(F(1, 2)), Coeff(-1, 0, 0, 1))

    def raise_(cz, czb, f):
        # cz (z - d/dzbar) + czb (zbar - d/dz) applied to f
        return cz * (z * f - sympy.diff(f, zb)) + czb * (zb * f - sympy.diff(f, z))

    for total in range(5):
        for k in range(total + 1):
            f = sympy.Integer(1)
            for _ in range(total - k):
                f = raise_(s12, s22, f)
            for _ in range(k):
                f = raise_(s11, s21, f)
            assert same(expr(deformed_hermite(g, k, total - k)), f), (k, total - k)


def test_level_matrices_by_binomial_expansion():
    # M[r, k] is the coefficient of s^r t^(L-r) in (g11 s + g21 t)^k
    # (g12 s + g22 t)^(L-k); the closed form must give it, and the level
    # walk of G = q_g g must give q_g^L times it, for the g of the deformed
    # family above; the walk of its adjugate must give q^L times the
    # matrices whose product with those of g is det(g)^L I
    r2 = sympy.sqrt(2)
    s11, s12, s21, s22 = 1 + r2, sympy.I, sympy.Rational(1, 2), -1 + r2 * sympy.I
    g = GL2(Coeff(1, 0, 1), Coeff(0, 1), Coeff(F(1, 2)), Coeff(-1, 0, 0, 1))
    adj = GL2(g.g22, -g.g12, -g.g21, g.g11)
    det = s11 * s22 - s12 * s21
    s, t = sympy.symbols("s t")

    def expanded(a11, a12, a21, a22, L):
        rows = [[0] * (L + 1) for _ in range(L + 1)]
        for k in range(L + 1):
            factors = (a11 * s + a21 * t) ** k * (a12 * s + a22 * t) ** (L - k)
            column = sympy.Poly(sympy.expand(factors), s, t)
            for r in range(L + 1):
                rows[r][k] = column.coeff_monomial(s**r * t ** (L - r))
        return sympy.Matrix(rows)

    (qg, G), (qa, A) = deform._cleared(g), deform._cleared(adj)
    walks = zip(*(deform._level_walk(m, _radical(m.entries())) for m in (G, A)))
    for L, columns in zip(range(6), walks):
        want = expanded(s11, s12, s21, s22, L)
        want_adj = expanded(s22, -s12, -s21, s11, L)
        closed = rep_matrix(g, L)
        # walked[k][r] = M(G, L)[r, k], and the same of the adjugate's walk
        walked, walked_adj = ([list(_values(c)) for c in m] for m in columns)
        for r in range(L + 1):
            for k in range(L + 1):
                assert same(scalar(closed[r, k]), want[r, k]), (L, r, k)
                assert same(scalar(Coeff(*walked[k][r])), qg**L * want[r, k]), (L, r, k)
                assert same(scalar(Coeff(*walked_adj[k][r])), qa**L * want_adj[r, k]), (L, r, k)
        product = (want_adj * want - det**L * sympy.eye(L + 1)).applyfunc(sympy.expand)
        assert product == sympy.zeros(L + 1, L + 1), L


# sqrt2 and i as free generators r and j: sympy's charpoly over QQ[r, j]
# takes a fraction of a second where one on entries in sqrt(2) and I took 25 s
# for a 5 x 5 level matrix, and substituting r = sqrt2, j = i afterwards is a
# ring homomorphism, so it commutes with the determinant
r, j, x = sympy.symbols("r j x")


def generic_scalar(c):
    q = sympy.Rational
    return q(c.re) + j * q(c.im) + r * (q(c.re2) + j * q(c.im2))


def sympy_charpoly(rows):
    """Coefficients of det(x I - A), lowest degree first, as sympy numbers."""
    matrix = sympy.Matrix([[generic_scalar(c) for c in row] for row in rows])
    coeffs = matrix.charpoly(x).all_coeffs()[::-1]
    return [sympy.expand(sympy.sympify(c).subs({r: sympy.sqrt(2), j: sympy.I})) for c in coeffs]


def random_field_coeff(rng):
    def part():
        return F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.7 else 0

    return Coeff(part(), part(), part(), part())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_charpoly_of_level_matrices(seed):
    rng = random.Random(seed)
    while True:
        entries = [random_field_coeff(rng) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2]:
            break
    g = GL2(*entries)
    assert any(c.re2 or c.im2 for c in g.entries())
    for L in range(6):
        rows = rep_matrix(g, L).entries
        got = charpoly(rows)
        want = sympy_charpoly(rows)
        assert len(got) == len(want) == L + 2 and got[-1] == 1
        assert all(same(scalar(a), b) for a, b in zip(got, want)), (g, L)
        # the float backend finds the same polynomial within FLOAT_TOL
        floats = [[c.to_float() for c in row] for row in rows]
        assert close(charpoly(floats), [c.to_float() for c in got]), (g, L)


@pytest.mark.parametrize(
    "rows",
    [
        # a zero subdiagonal pivot: a row and column swap
        [[1, 2, 0], [0, 1, 3], [5, 0, 1]],
        # a zero column below the diagonal: no pivot, and the recurrence splits
        [[2, 1, 0, 0], [0, 3, 0, 0], [0, 0, 1, 4], [0, 0, 0, 1]],
        # a cyclic shift, x^4 - 1
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[7]],
    ],
    ids=["swap", "split", "shift", "one by one"],
)
def test_charpoly_at_pivot_edge_cases(rows):
    rows = [[Coeff(v) for v in row] for row in rows]
    assert all(same(scalar(a), b) for a, b in zip(charpoly(rows), sympy_charpoly(rows)))
    floats = [[c.to_float() for c in row] for row in rows]
    assert close(charpoly(floats), [c.to_float() for c in charpoly(rows)])


# Q(i, sqrt2) as QQ[r, j] modulo r^2 - 2 and j^2 + 1, in sympy's sparse
# polynomial ring: the two relations are in separate variables, so they are
# a Groebner basis and the remainder is the reduced form of a value
RING, RR, RJ = sympy.ring("r j", sympy.QQ)
RELATIONS = [RR**2 - 2, RJ**2 + 1]


def ring_scalar(c):
    q = sympy.Rational
    return q(c.re) + RJ * q(c.im) + RR * (q(c.re2) + RJ * q(c.im2))


def ring_level_matrix(g, L):
    """M(g, L) by binomial expansion: M[r, k] is the coefficient of
    s^r t^(L-r) in (g11 s + g21 t)^k (g12 s + g22 t)^(L-k)."""
    ring, r, j, s, t = sympy.ring("r j s t", sympy.QQ)
    a11, a12, a21, a22 = (ring(ring_scalar(c).as_expr()) for c in g.entries())
    rows = [[RING.zero] * (L + 1) for _ in range(L + 1)]
    for k in range(L + 1):
        column = ((a11 * s + a21 * t) ** k * (a12 * s + a22 * t) ** (L - k)).rem([r**2 - 2, j**2 + 1])
        for (er, ej, es, _), c in column.terms():
            rows[es][k] += c * RR**er * RJ**ej
    return rows


def ring_mat_mul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), RING.zero).rem(RELATIONS) for col in zip(*b)]
        for row in a
    ]


@pytest.mark.parametrize(
    "g",
    [
        GL2(Coeff(1, 2), Coeff(F(3, 7)), Coeff(F(-1, 3)), Coeff(2, -1)),
        GL2(2, 1, -1, 4),
        GL2(Coeff(1, 0, 1), Coeff(0, 1), Coeff(F(1, 2)), Coeff(-1, 0, 0, 1)),
    ],
    ids=["generic", "defective", "radical"],
)
def test_exact_eigen_power_sums(g):
    # the power sums of M(g, L) are tr M^j, and the claimed spectrum
    # l1^k l2^(L-k) has sum_i (-1)^i C(L-i, i) s_j^(L-2i) q_j^i with
    # s_j = tr g^j and q_j = det(g)^j: both computed here in sympy, against
    # the library's Newton sums of the division-free kernel's polynomial of
    # Q M, which are Q^j tr M^j
    two = [[ring_scalar(c) for c in row] for row in ((g.g11, g.g12), (g.g21, g.g22))]
    det = (two[0][0] * two[1][1] - two[0][1] * two[1][0]).rem(RELATIONS)
    power, traces = two, []
    for _ in range(9):
        traces.append((power[0][0] + power[1][1]).rem(RELATIONS))
        power = ring_mat_mul(power, two)
    for L in range(9):
        walked = rep_matrix(g, L)
        M = ring_level_matrix(g, L)
        assert [[ring_scalar(c) for c in row] for row in walked.entries] == M, L
        Q, poly = _charpoly_cleared(walked.entries)
        integral = [ring_scalar(Coeff(*v)) for v in _values(_newton_sums(poly))]
        Mj = M
        for j in range(1, L + 2):
            trace = sum((Mj[i][i] for i in range(L + 1)), RING.zero)
            claimed = sum(
                ((-1) ** i * comb(L - i, i) * traces[j - 1] ** (L - 2 * i) * det ** (i * j)
                 for i in range(L // 2 + 1)),
                RING.zero,
            ).rem(RELATIONS)  # fmt: skip
            assert trace == claimed, (L, j)
            assert integral[j - 1] == trace * Q**j, (L, j)
            Mj = ring_mat_mul(Mj, M)
    assert eigenvalue_structure_check(g, 8).ok

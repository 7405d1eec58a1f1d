"""The division-free characteristic polynomial against the Hessenberg
reduction it replaced on exact input, which stays the float route and the
verifier here, and the Newton sums against the traces of matrix powers."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bihermite import linalg
from bihermite.coeffs import ZERO, Coeff, close
from bihermite.deform import GL2, rep_matrix
from bihermite.linalg import _charpoly_cleared, _hessenberg_charpoly, _newton_sums, _values, charpoly, mat_mul

from conftest import coeffs, radical_coeffs

SHAPES = ("full", "lower", "upper", "diagonal", "zero border row", "zero border column")


def _shaped(rows, shape, k):
    """rows with the entries that shape clears set to the exact ZERO; the
    border shapes clear row or column k to the left of or above the
    diagonal, so step k of the kernel has a zero border."""
    n = len(rows)
    keep = {
        "full": lambda i, j: True,
        "lower": lambda i, j: j <= i,
        "upper": lambda i, j: j >= i,
        "diagonal": lambda i, j: i == j,
        "zero border row": lambda i, j: not (i == k and j < k),
        "zero border column": lambda i, j: not (j == k and i < k),
    }[shape]
    return [[rows[i][j] if keep(i, j) else ZERO for j in range(n)] for i in range(n)]


@st.composite
def exact_matrices(draw):
    n = draw(st.integers(1, 7))
    entries = draw(st.sampled_from([coeffs, radical_coeffs]))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return _shaped(rows, draw(st.sampled_from(SHAPES)), draw(st.integers(0, n - 1)))


def same_slots(got, want):
    assert [(c.a, c.b, c.c, c.d, c.q, c.exact) for c in got] == [
        (c.a, c.b, c.c, c.d, c.q, c.exact) for c in want
    ]


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[Coeff(F(-7, 3), 2)]],
        [[Coeff(0, 0, 1)]],
        [[ZERO] * 3 for _ in range(3)],
        # a cyclic shift, x^4 - 1: zero borders at every step but the last
        [[ZERO, ZERO, ZERO, Coeff(1)], [Coeff(1), ZERO, ZERO, ZERO],
         [ZERO, Coeff(1), ZERO, ZERO], [ZERO, ZERO, Coeff(1), ZERO]],
    ],
    ids=["0 by 0", "1 by 1", "1 by 1 radical", "zero 3 by 3", "shift"],
)  # fmt: skip
def test_kernel_at_small_and_zero_matrices(rows):
    same_slots(charpoly(rows), _hessenberg_charpoly(rows))


def test_cleared_polynomial_is_that_of_q_times_a():
    rows = [[Coeff(F(1, 2)), Coeff(1)], [Coeff(2), Coeff(F(3, 4), F(1, 6))]]
    Q, poly = _charpoly_cleared(rows)
    assert Q == 12
    scaled = [[c * Q for c in row] for row in rows]
    same_slots([Coeff(*v) for v in _values(poly)], charpoly(scaled))


@pytest.mark.parametrize(
    "g",
    [
        GL2(Coeff(1, 2), Coeff(F(3, 7)), Coeff(F(-1, 3)), Coeff(2, -1)),
        GL2(Coeff(F(1, 2), 0, 1), Coeff(0, F(2, 3)), 1, Coeff(3, 0, 0, F(-1, 5))),
    ],
    ids=["Q(i)", "Q(i, sqrt2)"],
)
def test_level_matrices_give_the_hessenberg_polynomial(g):
    for L in range(10):
        M = rep_matrix(g, L)
        same_slots(charpoly(M.entries), _hessenberg_charpoly(M.entries))


def _float_copy(rows):
    return [[c.to_float() for c in row] for row in rows]


@pytest.mark.parametrize(
    "rows",
    [
        [[Coeff(F(1, 2), -1), Coeff(0, 3)], [Coeff(-2), Coeff(F(3, 4), F(1, 6))]],
        # a radical part folded into the float slots
        [[Coeff(0, 0, 1), Coeff(-1), ZERO], [Coeff(1), -Coeff(0, 1), Coeff(2)], [ZERO, Coeff(3), -Coeff(F(1, 3))]],
        # x^2 + 1, whose constant term comes out as 1.0 - 0.0i
        [[Coeff(0, -1), ZERO], [Coeff(-2, -1), Coeff(0, 1)]],
    ],
    ids=["2 by 2", "3 by 3 radical", "signed zero"],
)  # fmt: skip
def test_float_polynomial_is_the_hessenberg_polynomial_bit_for_bit(rows):
    floats = _float_copy(rows)
    Q, poly = _charpoly_cleared(floats)
    got, want = charpoly(floats), _hessenberg_charpoly(floats)
    assert Q == 1 and type(Q) is int and poly == ([c.a for c in want], [c.b for c in want])
    assert len(got) == len(want) == len(rows) + 1
    for x, y in zip(got, want):
        assert not x.exact and x.q == 1 and x == y
        # the signs of zeros in the real and imaginary slots too
        assert [math.copysign(1.0, v) for v in (x.a, x.b)] == [math.copysign(1.0, v) for v in (y.a, y.b)]


def test_triangular_and_diagonal_matrices_form_no_krylov_product(monkeypatch):
    calls = []
    for name in ("_matvec_gaussian", "_matvec_radical"):

        def counting(rows, v, matvec=getattr(linalg, name)):
            calls.append(len(rows))
            return matvec(rows, v)

        monkeypatch.setattr(linalg, name, counting)
    # M(g, L) of a lower triangular g is upper triangular, and the reverse
    for g in (GL2(2, 1, 0, 3), GL2(2, 0, Coeff(1, 0, 1), 3), GL2.diagonal(2, Coeff(0, 3))):
        for L in range(8):
            charpoly(rep_matrix(g, L).entries)
    assert calls == []
    full = [[Coeff(1), Coeff(2)], [Coeff(3), Coeff(4)]]
    charpoly(full)
    assert calls


# the property tests last: a failure they find shrinks through many Hessenberg
# reductions, and the cases above fail first
@given(exact_matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_charpoly_is_the_hessenberg_polynomial(rows):
    same_slots(charpoly(rows), _hessenberg_charpoly(rows))


@given(exact_matrices())
@example([[Coeff(F(1, 2)), Coeff(2, 1)], [Coeff(3), Coeff(4, 0, F(1, 3))]])  # fails at once, unshrunk
@settings(max_examples=40, deadline=None)
def test_newton_sums_are_scaled_traces_of_powers(rows):
    # p_j(Q A) = Q^j tr(A^j): literal on exact A, within FLOAT_TOL on its
    # float copy, whose Q is 1
    Q, poly = _charpoly_cleared(rows)
    floats = _float_copy(rows)
    Qf, poly_f = _charpoly_cleared(floats)
    assert Qf == 1
    got = [Coeff(*v) for v in _values(_newton_sums(poly))]
    got_f = [Coeff.from_complex(complex(*v[:2])) for v in _values(_newton_sums(poly_f))]
    assert len(got) == len(got_f) == len(rows)
    power, power_f = rows, floats
    for j, (p, p_f) in enumerate(zip(got, got_f), 1):
        trace = sum((power[i][i] for i in range(len(rows))), ZERO)
        trace_f = sum((power_f[i][i] for i in range(len(rows))), ZERO.to_float())
        same_slots([p], [trace * Q**j])
        assert close(p_f, trace_f), (j, p_f, trace_f)
        power, power_f = mat_mul(power, rows), mat_mul(power_f, floats)

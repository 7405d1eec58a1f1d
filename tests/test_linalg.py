"""The division-free characteristic polynomial against the Hessenberg
reduction it replaced on exact input, which stays the float route and the
verifier here, and the integer Newton sums against the Coeff route."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihermite import linalg
from bihermite.coeffs import ZERO, Coeff
from bihermite.deform import GL2, _level_matrices, _power_sums
from bihermite.linalg import _charpoly_cleared, _hessenberg_charpoly, _newton_sums, _values, charpoly

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
    for L, M in zip(range(10), _level_matrices(g)):
        same_slots(charpoly(M.entries), _hessenberg_charpoly(M.entries))


def test_triangular_and_diagonal_matrices_form_no_krylov_product(monkeypatch):
    calls = []
    for name in ("_matvec_gaussian", "_matvec_radical"):

        def counting(rows, v, matvec=getattr(linalg, name)):
            calls.append(len(rows))
            return matvec(rows, v)

        monkeypatch.setattr(linalg, name, counting)
    # M(g, L) of a lower triangular g is upper triangular, and the reverse
    for g in (GL2(2, 1, 0, 3), GL2(2, 0, Coeff(1, 0, 1), 3), GL2.diagonal(2, Coeff(0, 3))):
        for L, M in zip(range(8), _level_matrices(g)):
            charpoly(M.entries)
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
@settings(max_examples=40, deadline=None)
def test_integer_newton_sums_are_the_coeff_route(rows):
    Q, poly = _charpoly_cleared(rows)
    got = [Coeff(*v) for v in _values(_newton_sums(poly))]
    # p_j(Q A) = Q^j p_j(A)
    want = [p * Q**j for j, p in enumerate(_power_sums(charpoly(rows)), 1)]
    same_slots(got, want)

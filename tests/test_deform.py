import itertools
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bihermite import deform
from bihermite.coeffs import FLOAT_TOL, Coeff, close
from bihermite.deform import (
    GL2,
    RepMatrix,
    biorthogonality_check,
    deformed_generating_series,
    deformed_hermite,
    deformed_raising,
    dual_family,
    eigenvalue_structure_check,
    intertwine_check,
    level_basis,
    monomial_to_hermite,
    rep_laws_check,
    rep_matrix,
)
from bihermite.hermite import generating_series_complex, hermite_sum, normalizer_sq, orthonormality_check
from bihermite.linalg import _components, _radical, _values, charpoly, identity_matrix, mat_inverse, mat_mul
from bihermite.ncqm import AlphaPoint, alpha_matrix
from bihermite.poly import BiPoly, gram, inner_product

from conftest import coeffs, dense_gram, float_coeffs, gl2s, invertible_gl2, radical_coeffs

Z, ZB, ONE = BiPoly.z(), BiPoly.zbar(), BiPoly.one()
POINT = AlphaPoint.make(F(3, 5))
G_ALPHA = alpha_matrix(POINT)


def rational_gl2(rng) -> GL2:
    while True:
        entries = [
            Coeff(F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(4)
        ]
        try:
            return GL2(*entries)
        except ValueError:
            continue


def test_singular_rejected():
    with pytest.raises(ValueError):
        GL2(1, 2, 2, 4)


NAN = float("nan")


@pytest.mark.parametrize(
    "entries",
    [(NAN, 0.0, 0.0, 1.0), (float("inf"), 0.0, 0.0, 1.0), (complex(NAN, 0.0), 0.0, 0.0, 1.0),
     (1e308, 1e308, 1e308, 1e308)],
    ids=["nan", "inf", "(nan+0j)", "singular, det overflows"],
)
def test_nonfinite_entry_rejected(entries):
    # a NaN determinant is truthy, so the singular check alone lets it
    # through; the last matrix is singular, but its det is inf - inf = nan
    with pytest.raises(ValueError, match="not a finite number"):
        GL2(*entries)


@pytest.mark.parametrize(
    "entries",
    [(1e-200, 0.0, 0.0, 1e-200), (0.0, 1e-170, -3e-170, 0.0), (complex(1e-200, 1e-200), 0.0, 0.0, 1e-160)],
    ids=["diagonal", "anti-diagonal", "complex"],
)
def test_float_determinant_that_underflows_is_named(entries):
    # invertible, but a det below the smallest float rounds to 0.0; the same
    # matrix scaled by its largest entry has a nonzero det
    with pytest.raises(ValueError, match="float determinant underflows to zero"):
        GL2(*entries)


@pytest.mark.parametrize(
    "entries",
    [(1.0, 2.0, 2.0, 4.0), (1e-200, 1e-200, 1e-200, 1e-200), (0.0, 0.0, 0.0, 0.0), (1, 2, 2, 4)],
    ids=["float", "tiny float", "zero", "exact"],
)
def test_singular_matrix_is_named_singular(entries):
    with pytest.raises(ValueError, match="matrix is singular"):
        GL2(*entries)


def test_exact_entry_beyond_float_range_rejected_among_float_entries():
    # a matrix with a float entry computes in float, where 10**400 overflows
    with pytest.raises(ValueError, match="not a finite number"):
        GL2(10**400, 1.0, 0.0, 1.0)
    assert GL2(10**400, 0, 0, 1).det == 10**400


def test_alpha_matrix_values():
    assert G_ALPHA.g11 == Coeff(F(3, 5))
    assert G_ALPHA.g12 == Coeff(0, F(4, 5))
    assert G_ALPHA.g21 == Coeff(0, F(-4, 5))
    assert G_ALPHA.det == Coeff(F(-7, 25))
    assert G_ALPHA.conj_transpose() == G_ALPHA  # hermitian


def test_deformed_identity_is_undeformed():
    for m, n in [(0, 0), (1, 1), (2, 1), (3, 2)]:
        assert deformed_hermite(GL2.identity(), m, n) == hermite_sum(m, n)


def test_deformed_diagonal_scales():
    g = GL2.diagonal(2, 3)
    for k, l in [(1, 0), (1, 1), (2, 1)]:
        assert deformed_hermite(g, k, l) == hermite_sum(k, l) * (2**k * 3**l)


def test_deformed_alpha_first_level():
    got = deformed_hermite(G_ALPHA, 1, 0)
    assert got == BiPoly({(1, 0): Coeff(F(3, 5)), (0, 1): Coeff(0, F(-4, 5))})


def test_deformed_series_matches_polynomials():
    S = deformed_generating_series(G_ALPHA, 5)
    assert S.coeff(1, 0) == deformed_hermite(G_ALPHA, 1, 0)
    for total in range(6):
        for k in range(total + 1):
            l = total - k
            assert S.coeff(k, l) * (factorial(k) * factorial(l)) == deformed_hermite(G_ALPHA, k, l)


def test_deformed_series_identity_reduces_to_plain():
    assert deformed_generating_series(GL2.identity(), 5) == generating_series_complex(5)


def test_series_substitution_identity():
    # the deformed series is the plain series composed with the matrix
    g = G_ALPHA
    assert (
        generating_series_complex(6).substitute_linear(g.g11, g.g12, g.g21, g.g22)
        == deformed_generating_series(g, 6)
    )


def test_rep_matrix_identity_and_diagonal():
    assert rep_matrix(GL2.identity(), 4).entries == identity_matrix(5)
    M = rep_matrix(GL2.diagonal(2, 3), 2)
    assert [M[k, k] for k in range(3)] == [Coeff(9), Coeff(6), Coeff(4)]
    offdiag = [M[r, k] for r in range(3) for k in range(3) if r != k]
    assert not any(offdiag)


def test_rep_matrix_level_one_convention():
    rng = random.Random(3)
    g = rational_gl2(rng)
    M = rep_matrix(g, 1)
    assert M[0, 0] == g.g22 and M[0, 1] == g.g21
    assert M[1, 0] == g.g12 and M[1, 1] == g.g11


def test_rep_matrix_laws_random_rational():
    rng = random.Random(11)
    for _ in range(3):
        g, h = rational_gl2(rng), rational_gl2(rng)
        for L in range(4):
            Mg = rep_matrix(g, L).entries
            assert mat_mul(Mg, rep_matrix(h, L).entries) == rep_matrix(g @ h, L).entries
            assert rep_matrix(g, L).adjoint() == rep_matrix(g.conj_transpose(), L)
            assert mat_inverse(Mg) == rep_matrix(g.inverse(), L).entries


def plain_conj_transpose(M: RepMatrix) -> RepMatrix:
    """The entrywise conjugate transpose, which is not the level adjoint."""
    return RepMatrix([[c.conj() for c in column] for column in zip(*M.entries)])


def test_plain_conjugate_transpose_is_not_the_adjoint_beyond_level_one():
    """The level basis is orthogonal but not normalized, so for L >= 2 the
    matrix adjoint differs from the entrywise conjugate transpose."""
    rng = random.Random(5)
    g = rational_gl2(rng)
    assert plain_conj_transpose(rep_matrix(g, 1)) == rep_matrix(g.conj_transpose(), 1)
    assert plain_conj_transpose(rep_matrix(g, 2)) != rep_matrix(g.conj_transpose(), 2)
    assert rep_matrix(g, 2).adjoint() == rep_matrix(g.conj_transpose(), 2)


def test_det_law():
    # det M(g, L) = det(g)^(L(L+1)/2), a consequence of the eigenvalue structure;
    # the constant term of det(x I - M) is (-1)^(L+1) det M
    rng = random.Random(7)
    g = rational_gl2(rng)
    for L in range(4):
        det_m = (-1) ** (L + 1) * charpoly(rep_matrix(g, L).entries)[0]
        assert det_m == g.det ** (L * (L + 1) // 2)


def test_rep_action_convention():
    rng = random.Random(13)
    for g in (GL2.identity(), GL2.diagonal(2, 3), G_ALPHA, rational_gl2(rng)):
        for L in range(4):
            rep = rep_laws_check(g, g, L)
            assert rep.ok, rep.payload


def _columns(M, radical):
    """The columns of an integral or float RepMatrix, each a vector of
    component lists, as deform._level_walk yields them."""
    return [_components(col, 1, radical) for col in zip(*M.entries)]


def walk_of(matrix):
    """A stand-in for deform._level_walk that yields the columns of
    matrix(G, L) at L = 0, 1, 2, ..."""
    return lambda G, radical: (_columns(matrix(G, L), radical) for L in itertools.count())


def _raise_last_column_of_row_zero(M):
    rows = [list(row) for row in M.entries]
    rows[0][-1] = rows[0][-1] + 1
    return RepMatrix(rows)


# wrong matrices for the action law to catch, and the levels where they differ
ACTION_MUTANTS = {
    "one-entry": (lambda g, L: _raise_last_column_of_row_zero(rep_matrix(g, L)), range(5)),
    "adjoint-matrix": (lambda g, L: rep_matrix(g.conj_transpose(), L), range(1, 5)),
    "columns-reversed": (
        lambda g, L: RepMatrix([row[::-1] for row in rep_matrix(g, L).entries]),
        range(1, 5),
    ),
}


@pytest.mark.parametrize("mutant", ACTION_MUTANTS)
def test_action_law_fails_at_each_level_a_column_mutant_changes(monkeypatch, mutant):
    wrong, levels = ACTION_MUTANTS[mutant]
    g = rational_gl2(random.Random(13))
    changed = [L for L in range(5) if wrong(g, L) != rep_matrix(g, L)]
    assert changed == list(levels)
    monkeypatch.setattr(deform, "_level_walk", walk_of(wrong))
    failures = rep_laws_check(g, g, 4).payload["failures"]
    assert [f["L"] for f in failures if f["law"] == "action"] == changed


@pytest.mark.parametrize("mutant", ACTION_MUTANTS)
def test_float_action_law_fails_at_each_level_a_column_mutant_changes(monkeypatch, mutant):
    # a float pair is walked at the dyadic value it holds, whose lists the laws read
    wrong, levels = ACTION_MUTANTS[mutant]
    g = _float_gl2(rational_gl2(random.Random(13)))
    monkeypatch.setattr(deform, "_level_walk", walk_of(wrong))
    failures = rep_laws_check(g, g, 4).payload["failures"]
    assert [f["L"] for f in failures if f["law"] == "action"] == list(levels)


LAWS = ("identity", "product", "adjoint", "inverse", "action")


def _float_gl2(g):
    return GL2(*(c.to_float() for c in g.entries()))


def _adjugate(g):
    return GL2(g.g22, -g.g12, -g.g21, g.g11)


_rng = random.Random(13)
LAW_PAIR = (rational_gl2(_rng), rational_gl2(_rng))
FLOAT_LAW_PAIR = tuple(map(_float_gl2, LAW_PAIR))
# G = q_g g, whose walks the laws read: a float g at the dyadic value it holds
ADJ_G_LAW = _adjugate(deform._cleared(LAW_PAIR[0])[1])
ADJ_G_FLOAT_LAW = _adjugate(deform._cleared(FLOAT_LAW_PAIR[0])[1])

# each broken piece of M(., L), the pair (g, h) it is checked at, and the
# (L, law) failures it must cause up to level 4
LAW_MUTANTS = {
    # the weights w_k = k!(L-k)! are all equal below level 2.  Both backends
    # check W_L M(G*, L) = M(G, L)* W_L on the walks' lists: without W_L, the
    # plain conjugate transpose, on the float pair and on the exact one
    "plain-adjoint": (
        FLOAT_LAW_PAIR,
        deform,
        "normalizer_sq",
        lambda m, n: 1,
        [(L, "adjoint") for L in range(2, 5)],
    ),
    "unweighted-adjoint": (
        LAW_PAIR,
        deform,
        "normalizer_sq",
        lambda m, n: 1,
        [(L, "adjoint") for L in range(2, 5)],
    ),
    # exact g: M(adj G, L) M(G, L) = det(G)^L I, broken on the adjugate's walk only
    "adjugate-entry": (
        LAW_PAIR,
        deform,
        "_level_walk",
        walk_of(
            lambda m, L: _raise_last_column_of_row_zero(rep_matrix(m, L))
            if m == ADJ_G_LAW
            else rep_matrix(m, L)
        ),
        [(L, "inverse") for L in range(5)],
    ),
    # float g: the same law at the dyadic value of g, broken on its
    # adjugate's walk only
    "perturbed-inverse": (
        FLOAT_LAW_PAIR,
        deform,
        "_level_walk",
        walk_of(
            lambda m, L: _raise_last_column_of_row_zero(rep_matrix(m, L))
            if m == ADJ_G_FLOAT_LAW
            else rep_matrix(m, L)
        ),
        [(L, "inverse") for L in range(5)],
    ),
    # M[0][L] + 1 breaks every law at every level, except the adjoint at
    # level 0, where conj(m + 1) = conj(m) + 1
    "one-entry": (
        LAW_PAIR,
        deform,
        "_level_walk",
        walk_of(ACTION_MUTANTS["one-entry"][0]),
        [(L, law) for L in range(5) for law in LAWS if (L, law) != (0, "adjoint")],
    ),
}


@pytest.mark.parametrize("mutant", LAW_MUTANTS)
def test_rep_laws_check_names_each_broken_law(monkeypatch, mutant):
    (g, h), owner, name, wrong, expected = LAW_MUTANTS[mutant]
    assert rep_laws_check(g, h, 4).ok
    monkeypatch.setattr(owner, name, wrong)
    rep = rep_laws_check(g, h, 4)
    assert rep.payload == {"Lmax": 4, "failures": [{"L": L, "law": law} for L, law in expected]}
    assert not rep.ok


def test_level_basis_order():
    want = [hermite_sum(m, n) for m, n in [(3, 0), (2, 1), (1, 2), (0, 3)]]
    assert level_basis(3, GL2.identity()) == want


@pytest.mark.parametrize("g", [GL2.identity(), G_ALPHA], ids=["undeformed", "deformed"])
def test_negative_level_rejected(g):
    with pytest.raises(ValueError, match="level must be nonnegative"):
        level_basis(-1, g)


def _operator_power(g, k, l):
    """Hg[k, l] as the normal-ordered WeylOp power R1^k R2^l applied to 1:
    the route that raising level by level replaced, kept as its reference."""
    r1, r2 = deformed_raising(g)
    return (r1**k * r2**l).apply(BiPoly.monomial(0, 0, g.det**0))


def _family_by_operator_powers(g, L):
    return [_operator_power(g, L - j, j) for j in range(L + 1)]


FAMILY_MATRICES = [
    *(rational_gl2(random.Random(seed)) for seed in (101, 102, 103)),
    GL2(Coeff(1, 1), 2, Coeff(0, 0, 1), Coeff(3, -1)),  # [[1+i, 2], [sqrt2, 3-i]]
    G_ALPHA,
]


@pytest.mark.parametrize("g", FAMILY_MATRICES, ids=["qi-101", "qi-102", "qi-103", "sqrt2", "alpha"])
def test_level_basis_is_the_operator_power_family(g):
    # the M(g, L) route against the WeylOp powers it replaced, term for term
    g_dual = g.conj_transpose().inverse()
    for L in range(9):
        assert level_basis(L, g) == _family_by_operator_powers(g, L)
        assert dual_family(g, L).polys == _family_by_operator_powers(g_dual, L)


@pytest.mark.parametrize("g", FAMILY_MATRICES[::2], ids=["qi-101", "qi-103", "alpha"])
def test_float_level_basis_is_close_to_the_operator_power_family(g):
    gf = _float_gl2(g)
    gf_dual = gf.conj_transpose().inverse()
    for L in range(9):
        fast = level_basis(L, gf)
        assert all(not c.exact for p in fast for c in p.terms.values())
        assert close(fast, _family_by_operator_powers(gf, L))
        assert close(dual_family(gf, L).polys, _family_by_operator_powers(gf_dual, L))


def _float_poly(p):
    """The BiPoly of a float polynomial held as its (re, im) term maps."""
    re, im = p
    keys = re.keys() | im.keys()
    return BiPoly({k: Coeff.from_complex(complex(re.get(k, 0.0), im.get(k, 0.0))) for k in keys})


@pytest.mark.parametrize("g", FAMILY_MATRICES, ids=["qi-101", "qi-102", "qi-103", "sqrt2", "alpha"])
def test_raised_levels_are_the_operator_power_family(g):
    # the raised walk of G = q_g g holds q_g^L times the family, integral
    qg, G = deform._cleared(g)
    radical = _radical(G.entries())
    for L, family in zip(range(9), deform._raised_walk(G, radical)):
        assert len(family) == L + 1
        want = _family_by_operator_powers(g, L)[::-1]  # want[k] = Hg[k, L-k]
        assert family == [_term_maps(p * qg**L, radical) for p in want]


@pytest.mark.parametrize("g", FAMILY_MATRICES, ids=["qi-101", "qi-102", "qi-103", "sqrt2", "alpha"])
def test_float_raised_levels_are_close_to_the_operator_power_family(g):
    gf = _float_gl2(g)
    for L, family in zip(range(9), deform._raised_walk(gf, False)):
        assert len(family) == L + 1
        assert all(type(x) is float for p in family for m in p for x in m.values())
        want = _family_by_operator_powers(gf, L)[::-1]
        assert close([_float_poly(p) for p in family], want)
        # deformed_hermite raises the same polynomials, one operator at a time
        assert close([deformed_hermite(gf, k, L - k) for k in range(L + 1)], want)


def test_dual_family_identity():
    fam = dual_family(GL2.identity(), 2)
    assert fam.g_dual == GL2.identity()
    assert fam.polys == level_basis(2, GL2.identity())
    assert fam.consistent


def test_dual_family_unitary_self_dual():
    # real rotation: unitary, so the dual family equals the deformed family
    u = GL2(F(3, 5), F(4, 5), F(-4, 5), F(3, 5))
    fam = dual_family(u, 2)
    assert fam.g_dual == u
    assert fam.consistent


def test_dual_family_alpha():
    fam = dual_family(G_ALPHA, 2)
    assert fam.g_dual == G_ALPHA.inverse()
    assert fam.consistent
    delta = Coeff(F(-7, 25))
    assert fam.g_dual.g11 == Coeff(F(3, 5)) / delta


def test_dual_family_consistent_fails_on_the_plain_adjoint(monkeypatch):
    # paired with every Gram weight r!(L-r)! read as 1, the pairing is that
    # of the plain conjugate transpose, which is the level adjoint only below
    # level 2, where the weights are all 1
    g = rational_gl2(random.Random(13))
    assert all(dual_family(g, L).consistent for L in range(5))
    monkeypatch.setattr(deform, "gram", lambda a, b: [{j: Coeff(1) for j in row} for row in gram(a, b)])
    assert [L for L in range(5) if not dual_family(g, L).consistent] == [2, 3, 4]
    # the dual columns left unconjugated: g is not real, so every level
    # above 0 fails
    monkeypatch.undo()
    monkeypatch.setattr(deform, "_conj", lambda vector: vector)
    assert [L for L in range(5) if not dual_family(g, L).consistent] == [1, 2, 3, 4]


@pytest.mark.parametrize("L", [4, 8])
def test_float_dual_family_is_consistent_at_its_alpha_points(L):
    # decided at the dyadic value of g, the float dual is biorthogonal at
    # every alpha k/100; a fixed tolerance on the inverse of the level
    # adjoint read False at 8 of them at level 4 and 81 at level 8
    inconsistent = [
        k for k in range(1, 100) if not dual_family(alpha_matrix(AlphaPoint.make(k / 100)), L).consistent
    ]
    assert inconsistent == []


def test_biorthogonality_alpha():
    rep = biorthogonality_check(G_ALPHA, 3)
    assert rep.ok, rep.payload["violations"][:3]
    assert rep.to_json()["status"] == "pass" and rep.payload["violations"] == []


def test_biorthogonality_cross_level_blocks():
    g_dual = G_ALPHA.conj_transpose().inverse()
    duals = level_basis(2, g_dual)
    fams = level_basis(3, G_ALPHA)
    for dp in duals:
        for fp in fams:
            assert inner_product(dp, fp) == Coeff(0)


def test_biorthogonality_check_names_each_wrong_pairing(monkeypatch):
    # a dual built from g^† instead of (g^†)^-1: the check inverts what
    # conj_transpose returns, so returning (g^†)^-1 makes its dual g^†
    g = rational_gl2(random.Random(13))
    gh = g.conj_transpose()
    want = []
    for L in range(3):
        for M in range(3):
            for n in range(L + 1):
                for k in range(M + 1):
                    dual, fam = deformed_hermite(gh, L - n, n), deformed_hermite(g, M - k, k)
                    got = inner_product(dual, fam)
                    norm = factorial(L - n) * factorial(n) if (L, n) == (M, k) else 0
                    if got != Coeff(norm):
                        where = {"L": L, "M": M, "n": n, "k": k}
                        want.append({**where, "value": str(got), "expected": str(norm)})
    # the cross-level pairs stay zero, and level 0 pairs 1 with 1 for any g;
    # every other pair within a level is wrong
    assert [(f["L"], f["M"]) for f in want] == [(1, 1)] * 4 + [(2, 2)] * 9
    real = GL2.conj_transpose
    monkeypatch.setattr(GL2, "conj_transpose", lambda self: real(self).inverse())
    rep = biorthogonality_check(g, 2)
    assert rep.summary == "biorthogonality up to level 2: fail (36 pairings)"
    assert rep.payload["violations"] == want


def test_biorthogonality_random_rational():
    rng = random.Random(17)
    assert biorthogonality_check(rational_gl2(rng), 2).ok


def _pairwise_pairings(g, Lmax):
    """The biorth pairings as the gram of the dual and deformed families
    expanded over the monomials: the route the factored form replaced, kept
    as its independent verifier."""
    g_dual = g.conj_transpose().inverse()
    duals = [p for L in range(Lmax + 1) for p in level_basis(L, g_dual)]
    fams = [p for L in range(Lmax + 1) for p in level_basis(L, g)]
    return dense_gram(gram(duals, fams), len(fams))


def _dense_pairings(blocks, Lmax):
    """_biorth_pairings' blocks {(L, M): P} as one matrix over the levels up
    to Lmax, an absent block's entries the exact zero."""
    start = [L * (L + 1) // 2 for L in range(Lmax + 2)]
    out = [[Coeff(0)] * start[-1] for _ in range(start[-1])]
    for (L, M), block in blocks.items():
        assert len(block) == L + 1 and all(len(row) == M + 1 for row in block)
        for n, row in enumerate(block):
            out[start[L] + n][start[M] : start[M + 1]] = row
    return out


def radical_gl2(rng) -> GL2:
    """A seeded random invertible g over Q(i, sqrt2)."""
    def part():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    while True:
        try:
            return GL2(*(Coeff(part(), part(), part(), part()) for _ in range(4)))
        except ValueError:
            continue


PARITY_MATRICES = {
    **{f"alpha {a}": alpha_matrix(AlphaPoint.make(F(a))) for a in ("3/5", "5/13", "20/29")},
    **{f"qi-{seed}": rational_gl2(random.Random(seed)) for seed in (31, 32)},
    **{f"sqrt2-{seed}": radical_gl2(random.Random(seed)) for seed in (41, 42)},
}


@pytest.mark.parametrize("g", PARITY_MATRICES.values(), ids=PARITY_MATRICES.keys())
def test_factored_pairings_equal_the_pairwise_gram(g):
    for Lmax in (0, 1, 3, 6):
        blocks = deform._biorth_pairings(g, Lmax)
        # the undeformed Gram pairs no two levels, so no cross-level block has a term
        assert sorted(blocks) == [(L, L) for L in range(Lmax + 1)]
        got = _dense_pairings(blocks, Lmax)
        assert got == _pairwise_pairings(g, Lmax), Lmax
        assert all(c.exact for row in got for c in row)


def _block(matrix, L, M):
    """The level (L, M) block of a matrix over the levels 0, 1, 2, ..."""
    first = [n * (n + 1) // 2 for n in (L, L + 1, M, M + 1)]
    return [row[first[2] : first[3]] for row in matrix[first[0] : first[1]]]


# 20/29 lies near 1/sqrt2, where the pairwise float route rounds beyond FLOAT_TOL
FLOAT_PARITY = {name: g for name, g in PARITY_MATRICES.items() if name != "alpha 20/29"}


@pytest.mark.parametrize("g", FLOAT_PARITY.values(), ids=FLOAT_PARITY.keys())
def test_float_factored_pairings_are_close_to_the_pairwise_gram(g):
    gf = _float_gl2(g)
    # the families of g at the dyadic value it holds, whose entries are
    # those of gf read as Fractions
    dyadic = GL2(*(Coeff(F(c.a), F(c.b)) for c in gf.entries()))
    # at level 6 the pairwise float gram itself rounds beyond FLOAT_TOL at 3/5
    for Lmax in (1, 3, 5):
        got = _dense_pairings(deform._biorth_pairings(gf, Lmax), Lmax)
        assert got == _pairwise_pairings(dyadic, Lmax), Lmax
        assert close(got, _pairwise_pairings(gf, Lmax)), Lmax
        # every pairing is exact, and literally the theorem's: (L-n)! n! on
        # the diagonal and zero elsewhere, across levels too
        assert all(c.exact for row in got for c in row)
        for L, M in itertools.product(range(Lmax + 1), repeat=2):
            want = [
                [normalizer_sq(L - n, n) if (L, n) == (M, k) else 0 for k in range(M + 1)]
                for n in range(L + 1)
            ]
            assert _block(got, L, M) == want, (L, M)


def test_float_biorthogonality_at_its_alpha_points():
    # the pairings are exact at the dyadic value of the float matrix, so the
    # theorem holds literally at every alpha and level.  Compared under
    # FLOAT_TOL, 2 pairings failed at 0.68 and 20 at 0.7 (Lmax 4), and the
    # alphas 0.43-0.90 failed at Lmax 8
    for alpha in (0.3, 0.6, 0.62, 0.66, 0.68, 0.7, 0.73, 0.75, 0.9):
        g = alpha_matrix(AlphaPoint.make(alpha))
        for Lmax in (4, 8):
            rep = biorthogonality_check(g, Lmax)
            assert rep.ok and rep.payload["violations"] == [], (alpha, Lmax)


def test_biorth_pairings_reject_a_gram_entry_that_is_not_an_integer(monkeypatch):
    def halved(ps, qs):
        return [{j: c * F(1, 2) for j, c in row.items()} for row in gram(ps, qs)]

    monkeypatch.setattr(deform, "gram", halved)
    with pytest.raises(ArithmeticError, match="not integral"):
        biorthogonality_check(G_ALPHA, 2)


def test_biorthogonality_compares_a_diagonal_that_has_no_pairing_term(monkeypatch):
    # with <H[0,0], H[0,0]> taken out of the undeformed Gram, level 0's own
    # block has no term and no pairing of it is summed; its diagonal is still
    # compared, and fails, and every pairing is still counted
    def unpaired(ps, qs):
        rows = gram(ps, qs)
        del rows[0][0]
        return rows

    monkeypatch.setattr(deform, "gram", unpaired)
    rep = biorthogonality_check(G_ALPHA, 2)
    assert rep.summary == "biorthogonality up to level 2: fail (36 pairings)"
    assert rep.payload["violations"] == [
        {"L": 0, "M": 0, "n": 0, "k": 0, "value": "0", "expected": "1"}
    ]


@pytest.mark.parametrize(
    "check",
    [
        lambda: orthonormality_check(-1),
        lambda: biorthogonality_check(G_ALPHA, -1),
        lambda: intertwine_check(G_ALPHA, -1),
        lambda: biorthogonality_check(_float_gl2(G_ALPHA), -1),
        lambda: rep_laws_check(_float_gl2(G_ALPHA), G_ALPHA, -1),
        lambda: rep_laws_check(G_ALPHA, G_ALPHA, -1),
        lambda: eigenvalue_structure_check(G_ALPHA, -1),
    ],
)
def test_negative_lmax_rejected(check):
    with pytest.raises(ValueError, match="Lmax"):
        check()


def test_eigenvalue_structure_exact_cases():
    for g, Lmax in ((GL2.diagonal(2, 3), 2), (GL2(2, 1, 0, 3), 2), (GL2.identity(), 3)):
        rep = eigenvalue_structure_check(g, Lmax)
        assert rep.ok and rep.payload["mode"] == "exact-power-sums"
        # p_1 .. p_(L+1) at each level L
        assert rep.payload["power_sums"] == (Lmax + 1) * (Lmax + 2) // 2


GENERIC = GL2(Coeff(1, 2), Coeff(F(3, 7)), Coeff(F(-1, 3)), Coeff(2, -1))


def test_eigenvalue_structure_generic_float():
    gf = _float_gl2(GENERIC)
    rep = eigenvalue_structure_check(gf, 4)
    assert rep.ok and rep.payload["mode"] == "float"
    assert rep.payload["tolerance"] == FLOAT_TOL and rep.payload["power_sums"] == 15
    # the same g on the exact backend is compared literally
    rep = eigenvalue_structure_check(GENERIC, 4)
    assert rep.ok and rep.payload["mode"] == "exact-power-sums"
    assert rep.payload["power_sums"] == 15 and "tolerance" not in rep.payload


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_eigenvalue_structure_of_a_rotation(exact):
    # eigenvalues +-i: at even L some products are -1, on the branch cut of
    # the phase, and must still be matched
    g = GL2(0, -1, 1, 0)
    if not exact:
        g = _float_gl2(g)
    rep = eigenvalue_structure_check(g, 6)
    assert rep.ok and rep.payload["failures"] == [], rep.payload


def test_eigenvalue_structure_reports_unmatched_values(monkeypatch):
    def shifted(g, L):
        M = rep_matrix(g, L)
        if L == 2:
            M.entries[0][0] = M.entries[0][0] + 1
        return M

    # the trace, p_1, moved by 1 at level 2 only; p_2 and p_3 with it
    # (M[0][0] = 3^2 became 10 for the triangular g)
    monkeypatch.setattr(deform, "_level_walk", walk_of(shifted))
    for g in (GL2(2, 1, 0, 3), GENERIC):
        rep = eigenvalue_structure_check(g, 4)
        assert rep.status == "fail"
        assert rep.payload["failures"] == [{"L": 2, "power_sum": f"p_{j}"} for j in (1, 2, 3)]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_eigenvalue_structure_fails_on_a_perturbed_off_diagonal_entry(monkeypatch, exact):
    # a trace-preserving change: p_1 still matches, the higher power sums do not
    def perturbed(g, L):
        M = rep_matrix(g, L)
        if L:
            M.entries[0][L] = M.entries[0][L] + 1
        return M

    g = GENERIC if exact else _float_gl2(GENERIC)
    assert eigenvalue_structure_check(g, 5).ok
    monkeypatch.setattr(deform, "_level_walk", walk_of(perturbed))
    failures = eigenvalue_structure_check(g, 5).payload["failures"]
    assert {f["L"] for f in failures} == set(range(1, 6))
    assert all(f["power_sum"] != "p_1" for f in failures)


def test_eigenvalue_structure_repeated_eigenvalues():
    # trace 6, det 9: a double eigenvalue 3; trace 2, det 1: a double
    # eigenvalue 1.  Neither matrix is triangular, and both are defective.
    for g in (GL2(2, 1, -1, 4), GL2(2, 1, -1, 0)):
        rep = eigenvalue_structure_check(g, 6)
        assert rep.ok and rep.payload["mode"] == "exact-power-sums", g
        # on the float backend a double eigenvalue cannot be told from a
        # close pair, so the check declines
        gf = _float_gl2(g)
        rep = eigenvalue_structure_check(gf, 2)
        assert rep.status == "error" and rep.payload["mode"] == "float"


def test_level_checks_run_a_matrix_with_a_float_entry_on_float():
    # exact entries with a sqrt2 part and denominators beside one float entry:
    # the laws and the intertwiner walk g at its exact value, whose sqrt2
    # slots stay, and only the eigenvalue check runs on float
    g = GL2(Coeff(F(1, 3), 0, 1), 0.5, Coeff(0, F(1, 2)), 2)
    exact_g = GL2(Coeff(F(1, 3), 0, 1), Coeff(F(1, 2)), Coeff(0, F(1, 2)), 2)
    assert deform._cleared(g) == deform._cleared(exact_g)
    assert rep_laws_check(g, g, 4).ok and rep_laws_check(exact_g, _float_gl2(g), 4).ok
    assert intertwine_check(g, 4).ok
    rep = eigenvalue_structure_check(g, 4)
    assert rep.ok and rep.payload["mode"] == "float"


@given(gl2s(float_coeffs))
@settings(max_examples=30, deadline=None)
def test_float_entries_are_read_at_their_dyadic_value(g):
    # each float slot is the Fraction it holds, so q_g is a power of 2 and
    # G = q_g g is that value cleared, neither rounded nor with a part dropped
    dyadic = [Coeff(F(c.a), F(c.b)) for c in g.entries()]
    qg, G = deform._cleared(g)
    assert qg == max(c.q for c in dyadic) and qg & (qg - 1) == 0
    assert list(G.entries()) == [c * qg for c in dyadic] and G.is_exact()


@given(gl2s(float_coeffs), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_float_level_checks_pass_at_every_float_matrix(g, Lmax):
    # the theorems hold at every g in GL(2, C), and a float g is one: the
    # laws, the pairings and the intertwiner are decided at its exact value
    h = GL2(*reversed(g.entries()))  # det h = det g
    assert rep_laws_check(g, h, Lmax).ok
    assert biorthogonality_check(g, Lmax).ok
    assert intertwine_check(g, Lmax).ok


def test_float_level_checks_pass_at_a_double_near_the_float_range():
    # 1e300 is an integer of 997 bits: compared under FLOAT_TOL, biorth and
    # the intertwiner failed at Lmax 5, and rep_laws_check raised forming GH
    # in float
    g = GL2(1e300, 1.0, 1.0, 0.0)
    assert deform._cleared(g) == (1, GL2(int(1e300), 1, 1, 0))
    assert biorthogonality_check(g, 5).ok and intertwine_check(g, 5).ok
    assert rep_laws_check(g, g, 5).ok


def test_intertwiner_on_monomials():
    assert monomial_to_hermite(Z * ZB) == Z * ZB - ONE
    assert monomial_to_hermite(Z**2) == Z**2
    assert monomial_to_hermite(Z**2 * ZB**2) == Z**2 * ZB**2 - 4 * Z * ZB + 2 * ONE
    for total in range(7):
        for m in range(total + 1):
            assert monomial_to_hermite(BiPoly.monomial(m, total - m)) == hermite_sum(m, total - m)


def test_intertwine_check_alpha():
    assert intertwine_check(G_ALPHA, 4).ok


def test_intertwine_check_names_each_wrong_monomial(monkeypatch):
    # H[1,1] and H[2,0] each with the coefficient of their leading monomial raised by 1
    real = deform.hermite_sum
    raised = {(1, 1), (2, 0)}
    monkeypatch.setattr(
        deform,
        "hermite_sum",
        lambda m, n: real(m, n) + BiPoly.monomial(m, n) if (m, n) in raised else real(m, n),
    )
    rep = intertwine_check(rational_gl2(random.Random(13)), 3)
    assert rep.status == "fail"
    assert rep.payload["failures"] == [
        {"kind": "monomial", "m": 1, "n": 1},
        {"kind": "monomial", "m": 2, "n": 0},
    ]


@pytest.mark.parametrize(
    "g",
    [rational_gl2(random.Random(13)), G_ALPHA, _float_gl2(G_ALPHA)],
    ids=["qi-13", "alpha", "float-alpha"],
)
def test_intertwine_check_names_each_wrong_column(monkeypatch, g):
    # one entry raised by 1 at every level, in a column that moves with L
    def wrong(g, L):
        rows = [list(row) for row in right[L].entries]
        rows[L // 2][L // 3] = rows[L // 2][L // 3] + 1
        return RepMatrix(rows)

    Lmax = 6
    _, G = deform._cleared(g)  # the integral G = q_g g, of a float g at its dyadic value
    right = {L: rep_matrix(G, L) for L in range(Lmax + 1)}
    want = []
    for L in range(Lmax + 1):
        pairs = zip(zip(*right[L].entries), zip(*wrong(g, L).entries))
        want += [{"kind": "operator", "L": L, "k": k} for k, (a, b) in enumerate(pairs) if a != b]
    assert [(f["L"], f["k"]) for f in want] == [(L, L // 3) for L in range(Lmax + 1)]
    monkeypatch.setattr(deform, "_level_walk", walk_of(wrong))
    rep = intertwine_check(g, Lmax)
    assert not rep.ok and rep.payload["failures"] == want


@pytest.mark.parametrize("g", [G_ALPHA, GL2(2, 0, 0, Coeff(F(1, 3), 1))], ids=["alpha", "diagonal"])
def test_exact_intertwine_fails_each_column_that_needs_a_non_integral_image(monkeypatch, g):
    # E(z zbar) halved: not integral, so it has no integer term map, and
    # each level-2 column whose entry at r = 1 is nonzero must fail with it
    def halved(p):
        image = monomial_to_hermite(p)
        return image * Coeff(F(1, 2)) if list(p.terms) == [(1, 1)] else image

    _, G = deform._cleared(g)
    want = [{"kind": "monomial", "m": 1, "n": 1}]
    want += [{"kind": "operator", "L": 2, "k": k} for k, c in enumerate(rep_matrix(G, 2).entries[1]) if c]
    assert len(want) == (4 if g is G_ALPHA else 2)
    monkeypatch.setattr(deform, "monomial_to_hermite", halved)
    rep = intertwine_check(g, 3)
    assert not rep.ok and rep.payload["failures"] == want


def test_rep_matrix_json_round_trip():
    M = rep_matrix(G_ALPHA, 2)
    obj = M.to_json()
    assert obj["L"] == 2 and len(obj["rows"]) == 3
    assert RepMatrix.from_json(obj) == M


@pytest.mark.parametrize("L, shape", [(2, [2, 2]), (1, [2, 1])], ids=["level", "ragged"])
def test_rep_matrix_from_json_rejects_a_grid_of_the_wrong_shape(L, shape):
    # the one path that reads a level matrix from outside the program
    rows = [[{"re": "1"}] * n for n in shape]
    with pytest.raises(ValueError, match="entry grid must be"):
        RepMatrix.from_json({"L": L, "rows": rows})


@given(invertible_gl2)
@settings(max_examples=25, deadline=None)
def test_rep_matrix_homomorphism_property(g):
    L = 2
    product = mat_mul(rep_matrix(g, L).entries, rep_matrix(g.inverse(), L).entries)
    assert product == identity_matrix(L + 1)
    assert rep_matrix(g, L).adjoint() == rep_matrix(g.conj_transpose(), L)


def reference_rep_matrix(g: GL2, L: int) -> RepMatrix:
    """M(g, L) by the triple sum over (r, k, q) with powers formed per term."""
    g11, g12, g21, g22 = g.entries()
    exact = g.is_exact()
    rows = []
    for r in range(L + 1):
        row = []
        for k in range(L + 1):
            acc = Coeff(0, exact=exact)
            for q in range(max(0, r + k - L), min(r, k) + 1):
                w = (
                    (g11**q)
                    * (g21 ** (k - q))
                    * (g12 ** (r - q))
                    * (g22 ** (L - k + q - r))
                )
                acc = acc + w * (comb(k, q) * comb(L - k, r - q))
            row.append(acc)
        rows.append(row)
    return RepMatrix(rows)


@given(gl2s(radical_coeffs), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_rep_matrix_matches_triple_sum(g, L):
    assert rep_matrix(g, L) == reference_rep_matrix(g, L)


# which entries of g each shape keeps, in the order g11, g12, g21, g22
SHAPES = {
    "full": (1, 1, 1, 1),
    "diagonal": (1, 0, 0, 1),
    "upper": (1, 1, 0, 1),
    "lower": (1, 0, 1, 1),
    "anti-diagonal": (0, 1, 1, 0),
}


@given(st.tuples(*[radical_coeffs] * 4), st.sampled_from(sorted(SHAPES)))
@settings(max_examples=30, deadline=None)
def test_level_walk_equals_closed_form(entries, shape):
    entries = [c if keep else Coeff(0) for c, keep in zip(entries, SHAPES[shape])]
    try:
        g = GL2(*entries)
    except ValueError:
        assume(False)
    # the walk of G = q_g g over q_g^L, column by column
    qg, G = deform._cleared(g)
    for L, columns in zip(range(13), deform._level_walk(G, _radical(G.entries()))):
        walked = [[Coeff(*v) * F(1, qg**L) for v in _values(c)] for c in columns]
        assert len(walked) == L + 1, (g, L)
        assert walked == [list(c) for c in zip(*rep_matrix(g, L).entries)], (g, L)


def _shaped_gl2(entries, shape):
    """The GL2 of entries with the zeros of a SHAPES shape, or no example."""
    zero = entries[0] * 0  # on the entries' backend
    try:
        return GL2(*(c if keep else zero for c, keep in zip(entries, SHAPES[shape])))
    except ValueError:
        assume(False)


def _term_maps(p, radical):
    """One {(a, b): int} map per component of an integral polynomial, as
    deform._raised_walk holds it."""
    assert all(c.q == 1 for c in p.terms.values())
    parts = _components(list(p.terms.values()), 1, radical)
    return tuple({key: x for key, x in zip(p.terms, m) if x} for m in parts)


# four entries over Q(i), or over Q(i, sqrt2) with each slot often zero
qi_or_radical_entries = st.tuples(*[coeffs] * 4) | st.tuples(*[radical_coeffs] * 4)


@given(qi_or_radical_entries, st.sampled_from(sorted(SHAPES)))
@settings(max_examples=30, deadline=None)
def test_integral_walk_is_the_scaled_closed_form(entries, shape):
    # the walk of G = q_g g holds q_g^L M(g, L), integral, with no reduction
    g = _shaped_gl2(entries, shape)
    qg, G = deform._cleared(g)
    radical = _radical(G.entries())
    for L, columns in zip(range(13), deform._level_walk(G, radical)):
        scaled = [[c * qg**L for c in col] for col in zip(*rep_matrix(g, L).entries)]
        assert all(c.q == 1 for col in scaled for c in col)
        assert columns == [_components(col, 1, radical) for col in scaled], (g, L)


@given(qi_or_radical_entries, st.sampled_from(sorted(SHAPES)))
@settings(max_examples=15, deadline=None)
def test_integral_raised_walk_is_the_scaled_operator_power_family(entries, shape):
    g = _shaped_gl2(entries, shape)
    qg, G = deform._cleared(g)
    radical = _radical(G.entries())
    for L, family in zip(range(7), deform._raised_walk(G, radical)):
        want = _family_by_operator_powers(g, L)[::-1]  # want[k] = Hg[k, L-k]
        assert family == [_term_maps(p * qg**L, radical) for p in want], (g, L)


def _coeff_level_matrices(g):
    """M(g, 0), M(g, 1), ... by the Coeff chain that the component-list walk
    replaced, kept as the reference of its float view: two Coeff products
    per entry, then their sum."""

    def times_linear(column, a, b):
        out = [b * column[0]]
        out += [a * column[r - 1] + b * column[r] for r in range(1, len(column))]
        out.append(a * column[-1])
        return out

    columns = [[g.det**0]]
    while True:
        yield RepMatrix([list(row) for row in zip(*columns)])
        columns = [times_linear(columns[0], g.g12, g.g22)] + [
            times_linear(c, g.g11, g.g21) for c in columns
        ]


@given(st.tuples(*[float_coeffs] * 4), st.sampled_from(sorted(SHAPES)))
@settings(max_examples=30, deadline=None)
def test_float_level_view_is_the_coeff_chain_bit_for_bit(entries, shape):
    # the real and imaginary slots, signed zeros included; the radical slots
    # of a float value are zeros
    g = _shaped_gl2(entries, shape)
    walks = zip(range(13), deform._level_walk(g, False), _coeff_level_matrices(g))
    for L, columns, want in walks:
        got = deform._coeff_rows(columns)
        assert [[(c.a.hex(), c.b.hex()) for c in row] for row in got] == [
            [(c.a.hex(), c.b.hex()) for c in row] for row in want.entries
        ], (g, L)
        assert all(not c.exact and c.q == 1 and not (c.c or c.d) for row in got for c in row)


@pytest.mark.parametrize(
    "g",
    [
        G_ALPHA,
        GL2.diagonal(2, 3),
        GL2(2, 1, 0, 3),
        GL2(0, -1, 1, 0),
        GL2(Coeff(1, 2), Coeff(F(3, 7)), Coeff(F(-1, 3)), Coeff(2, -1)),
        rational_gl2(random.Random(13)),
    ],
    ids=["alpha", "diagonal", "triangular", "anti-diagonal", "generic", "qi-13"],
)
def test_float_level_walk_agrees_with_closed_form(g):
    # the walk sums in another order than the closed form, so on float the
    # two agree to rounding
    gf = _float_gl2(g)
    for L, columns in zip(range(13), deform._level_walk(gf, False)):
        M, want = deform._coeff_rows(columns), rep_matrix(gf, L)
        assert not M[0][0].exact and close(M, want.entries), L


def test_rep_matrix_matches_triple_sum_on_the_battery_matrices():
    rng = random.Random(23)
    for g in (G_ALPHA, GL2.diagonal(2, 3), GL2(2, 1, 0, 3), rational_gl2(rng)):
        for L in (0, 1, 5, 8):
            assert rep_matrix(g, L) == reference_rep_matrix(g, L)
    # the float route sums in another order, so it agrees to rounding
    gf = GL2(*(c.to_float() for c in G_ALPHA.entries()))
    for L in (1, 5, 8):
        got, want = rep_matrix(gf, L), reference_rep_matrix(gf, L)
        assert not got[0, 0].exact and close(got.entries, want.entries)

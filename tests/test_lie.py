import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihermite import lie
from bihermite.coeffs import FLOAT_TOL, Coeff, close
from bihermite.lie import (
    LieBasisSet,
    StructureConstants,
    basis_change,
    bilinear_generators,
    classify,
    lie_report,
    rescale,
    structure_constants,
    theta_one_limit_table,
)
from bihermite.linalg import identity_matrix, mat_inverse, rank, solve_in_span
from bihermite.ncqm import AlphaPoint
from bihermite.weyl import WeylOp, commutator

from conftest import radical_coeffs

POINT = AlphaPoint.make(F(3, 5))
THETA = F(24, 25)
I1 = Coeff(0, 1)
ZERO4 = [Coeff(0)] * 4


def coords(*pairs):
    out = list(ZERO4)
    for idx, val in pairs:
        out[idx] = Coeff.lift(val) if not isinstance(val, Coeff) else val
    return out


def test_undeformed_su2_table():
    sc = structure_constants(bilinear_generators(None))
    assert sc.closed and sc.jacobi_ok()
    assert sc.bracket(0, 1) == coords((2, I1))  # [J1, J2] = i J3
    assert sc.bracket(1, 2) == coords((0, I1))  # [J2, J3] = i J1
    assert sc.bracket(2, 0) == coords((1, I1))  # [J3, J1] = i J2
    for i in range(3):
        assert sc.bracket(3, i) == ZERO4  # J4 central
    assert classify(sc) == "su2_plus_u1"


def test_deformed_table_at_three_fifths():
    sc = structure_constants(bilinear_generators(POINT))
    assert sc.closed and sc.jacobi_ok()
    ith = I1 * THETA
    assert sc.bracket(0, 1) == coords((2, I1))  # [J1, J2] = i J3
    assert sc.bracket(1, 2) == coords((0, I1))  # [J2, J3] = i J1
    assert sc.bracket(2, 3) == coords((0, ith))  # [J3, J4] = i theta J1
    assert sc.bracket(3, 0) == coords((2, ith))  # [J4, J1] = i theta J3
    assert sc.bracket(2, 0) == coords((1, I1), (3, ith))  # [J3, J1] = i J2 + i theta J4
    assert sc.bracket(1, 3) == ZERO4  # [J2, J4] = 0
    assert classify(sc) == "su2_plus_u1"


def test_split_basis_table():
    xb = basis_change(bilinear_generators(POINT))
    sc = structure_constants(xb)
    assert sc.closed and sc.jacobi_ok()
    c = 1 - THETA * THETA
    assert c == F(49, 625)
    assert sc.bracket(0, 1) == coords((2, 1))  # [X1, X2] = X3
    assert sc.bracket(1, 2) == coords((0, c))  # [X2, X3] = (1 - theta^2) X1
    assert sc.bracket(2, 0) == coords((1, c))  # [X3, X1] = (1 - theta^2) X2
    for i in range(3):
        assert sc.bracket(3, i) == ZERO4  # Y commutes with every X
    assert classify(sc) == "su2_plus_u1"


def test_rescaled_su2_table():
    for a in (F(3, 5), F(5, 13), F(8, 17)):
        zb = rescale(basis_change(bilinear_generators(AlphaPoint.make(a))))
        sc = structure_constants(zb)
        assert sc.closed and sc.jacobi_ok()
        assert sc.bracket(0, 1) == coords((2, 1))
        assert sc.bracket(1, 2) == coords((0, 1))
        assert sc.bracket(2, 0) == coords((1, 1))
        assert classify(sc) == "su2_plus_u1"


def test_rescale_identity_at_theta_zero():
    xb = basis_change(bilinear_generators(None))
    zb = rescale(xb)
    assert zb.ops == xb.ops


def test_rescale_singular_at_theta_one():
    pt = AlphaPoint.make(0.5**0.5)
    with pytest.raises(ValueError, match="singular at theta = 1"):
        rescale(basis_change(bilinear_generators(pt)))


def test_rescale_rejects_irrational_factor_in_exact_mode():
    class FakeBasis:
        pass

    xb = basis_change(bilinear_generators(POINT))
    bad = LieBasisSet(xb.names, xb.ops, F(1, 2))  # sqrt(3)/2 is irrational
    with pytest.raises(ValueError, match="float backend"):
        rescale(bad)


def test_structure_constants_rejects_dependent_generators():
    j = bilinear_generators(None)
    dep = LieBasisSet(("A", "B", "C", "D"), (j.ops[0], j.ops[1], j.ops[0], j.ops[3]), j.theta)
    with pytest.raises(ValueError, match="dependent"):
        structure_constants(dep)


def test_degenerate_limit_at_theta_one():
    pt = AlphaPoint.make(0.5**0.5)
    xb = basis_change(bilinear_generators(pt))
    # all four X-basis operators vanish, so the span solve must refuse...
    with pytest.raises(ValueError, match="dependent"):
        structure_constants(xb)
    # ...and the limit table takes over with tiny residuals
    sc = theta_one_limit_table(xb)
    assert all(r <= 1e-10 for r in sc.residuals.values())
    assert sc.closed and sc.jacobi_ok()
    assert classify(sc) == "heisenberg_plus_u1"


def test_every_split_basis_operator_vanishes_at_theta_one():
    # g is singular at alpha = 1/sqrt2: the ladders collapse to one mode and
    # X1, X2, X3 and Y are all zero up to rounding
    xb = basis_change(bilinear_generators(AlphaPoint.make(0.5**0.5)))
    assert xb.names == ("X1", "X2", "X3", "Y")
    assert all(op.max_abs() <= FLOAT_TOL for op in xb.ops)


def test_limit_table_residuals_detect_wrong_operators():
    # handing the limit table a non-degenerate basis must show residuals
    xb = basis_change(bilinear_generators(AlphaPoint.make(0.6)))
    sc = theta_one_limit_table(xb)
    assert not sc.closed


def test_classify_unknown_for_solvable_table():
    # [e1, e2] = e2 with two extra central directions: solvable, not one of
    # the two expected classes
    names = ("e1", "e2", "e3", "e4")
    table = {
        (0, 1): coords((1, 1)),
        (0, 2): ZERO4,
        (0, 3): ZERO4,
        (1, 2): ZERO4,
        (1, 3): ZERO4,
        (2, 3): ZERO4,
    }
    residuals = {k: 0.0 for k in table}
    sc = StructureConstants(names, table, residuals)
    assert sc.jacobi_ok()
    assert classify(sc) == "unknown"


def real_table(brackets):
    """A four-dimensional table from {(i, j): {l: c}}, [e_i, e_j] = sum c e_l."""
    table = {}
    for ij in combinations(range(4), 2):
        table[ij] = [Coeff.lift(brackets.get(ij, {}).get(l, 0)) for l in range(4)]
    return StructureConstants(("e1", "e2", "e3", "e4"), table, {ij: 0.0 for ij in table})


# [e4, e1] = e2, [e4, e2] = -e1, [e1, e2] = e3: solvable, e3 central and derived
OSCILLATOR = real_table({(0, 1): {2: 1}, (0, 3): {1: -1}, (1, 3): {0: 1}})
# (h, e, f, z): [h, e] = 2e, [h, f] = -2f, [e, f] = h, z central
SL2R_PLUS_R = real_table({(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
# [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2, e4 central
SU2_PLUS_R = real_table({(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def random_rational_bases(count):
    """Invertible 4 x 4 matrices whose rows have entries p/q, |p| <= 3, q <= 3."""
    rng = random.Random(11)
    bases = []
    while len(bases) < count:
        rows = [[Coeff(F(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(4)] for _ in range(4)]
        if rank(rows) == 4:
            bases.append(rows)
    return bases


def in_basis(sc, rows, exact):
    """The table in the basis f_i = sum_a rows[i][a] e_a, computed exactly and
    then, on the float backend, rounded entry by entry."""
    inv = mat_inverse(rows)
    table = {}
    for i, j in combinations(range(4), 2):
        v = [Coeff(0)] * 4  # [f_i, f_j] in e-coordinates
        for a in range(4):
            for b in range(4):
                w = rows[i][a] * rows[j][b]
                if w:
                    v = [x + w * c for x, c in zip(v, sc.bracket(a, b))]
        coords = [sum((v[a] * inv[a][m] for a in range(4)), Coeff(0)) for m in range(4)]
        table[(i, j)] = coords if exact else [c.to_float() for c in coords]
    return StructureConstants(sc.names, table, {ij: 0.0 for ij in table})


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_oscillator_algebra_is_not_compact_in_any_basis(exact):
    # solvable with a three-dimensional derived algebra and a one-dimensional
    # center inside it, so the restricted Killing form is zero: the counts
    # alone match su(2) + u(1), and float rounding of zero must not pass the
    # definiteness test
    for rows in [identity_matrix(4)] + random_rational_bases(100):
        assert classify(in_basis(OSCILLATOR, rows, exact)) == "unknown"


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_sl2r_plus_r_is_not_compact(exact):
    # the Killing form of sl(2, R) is indefinite
    for rows in [identity_matrix(4)] + random_rational_bases(25):
        assert classify(in_basis(SL2R_PLUS_R, rows, exact)) == "unknown"


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_su2_plus_r_is_compact_in_random_bases(exact):
    for rows in [identity_matrix(4)] + random_rational_bases(25):
        assert classify(in_basis(SU2_PLUS_R, rows, exact)) == "su2_plus_u1"


def scaled(sc, s):
    return StructureConstants(sc.names, {ij: [c * s for c in v] for ij, v in sc.table.items()}, sc.residuals)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_verdict_does_not_depend_on_the_size_of_the_constants(exact):
    # multiplying every constant by s > 0 is an isomorphism, while the
    # Killing form's characteristic polynomial scales by powers of s up to s^12
    # and each Jacobiator entry by s^2
    for s in (F(1, 10), F(1, 1000), F(1, 10**6), 100, 1000):
        for rows in [identity_matrix(4)] + random_rational_bases(25):
            assert classify(in_basis(scaled(SU2_PLUS_R, s), rows, exact)) == "su2_plus_u1"
            assert classify(in_basis(scaled(OSCILLATOR, s), rows, exact)) == "unknown"
            assert classify(in_basis(scaled(SL2R_PLUS_R, s), rows, exact)) == "unknown"


ALPHAS_NEAR_THETA_ONE = [F(20, 29), F(119, 169), F(696, 985)]


@pytest.mark.parametrize(
    "alpha", ALPHAS_NEAR_THETA_ONE + [0.65, 0.7, 0.75] + [float(a) for a in ALPHAS_NEAR_THETA_ONE], ids=str
)
def test_split_basis_with_small_constants_is_compact(alpha):
    # [X2, X3] = c X1 and [X3, X1] = c X2 with c = (1 - 2 alpha^2)^2 beside
    # [X1, X2] = X3: c is about 0.024 at alpha 0.65, 2.4e-3 at 20/29, 7e-5
    # at 119/169 and 2e-6 at 696/985
    sc = structure_constants(basis_change(bilinear_generators(AlphaPoint.make(alpha))))
    assert classify(sc) == "su2_plus_u1"


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_su2_with_one_small_constant_is_compact(exact):
    # [e2, e3] = a e1 beside unit constants: K = diag(-2, -2a, -2a), so its
    # smallest eigenvalue is a times its largest while det K is a^2 times
    # the cube of its scale
    for a in (F(1, 10**4), F(1, 10**6), F(1, 10**9)):
        sc = real_table({(0, 1): {2: 1}, (1, 2): {0: a}, (0, 2): {1: -1}})
        assert classify(in_basis(sc, identity_matrix(4), exact)) == "su2_plus_u1"


def test_float_table_with_imaginary_rounding_is_classified():
    # an imaginary part within FLOAT_TOL is rounding and reads as zero
    sc = in_basis(SU2_PLUS_R, identity_matrix(4), exact=False)
    sc.table[(0, 1)] = coords((2, Coeff(1.0, 1e-13, exact=False)))
    assert sc.jacobi_ok()
    assert classify(sc) == "su2_plus_u1"


def test_classify_rejects_non_closed_table():
    names = ("e1", "e2", "e3", "e4")
    table = {k: ZERO4 for k in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    residuals = {k: 1.0 for k in table}
    sc = StructureConstants(names, table, residuals)
    with pytest.raises(ValueError):
        classify(sc)


def test_classify_mixed_real_imaginary_table_unknown():
    names = ("e1", "e2", "e3", "e4")
    table = {
        (0, 1): coords((2, 1)),
        (0, 2): coords((1, I1)),
        (0, 3): ZERO4,
        (1, 2): ZERO4,
        (1, 3): ZERO4,
        (2, 3): ZERO4,
    }
    residuals = {k: 0.0 for k in table}
    sc = StructureConstants(names, table, residuals)
    if sc.jacobi_ok():
        assert classify(sc) == "unknown"


def test_structure_constants_json():
    sc = structure_constants(bilinear_generators(POINT))
    obj = sc.to_json()
    assert obj["basis"] == ["J1", "J2", "J3", "J4"]
    assert all(b["residual_norm"] == 0.0 for b in obj["brackets"])


def test_lie_report_exact_and_float():
    assert lie_report(POINT).ok
    assert lie_report(None).payload["class"] == "su2_plus_u1"
    rep = lie_report(AlphaPoint.make(0.5**0.5))
    assert rep.ok and rep.payload["class"] == "heisenberg_plus_u1"
    assert rep.payload["degenerate_limit"] is True


def test_lie_report_fails_when_the_final_table_does_not_close(monkeypatch):
    # a fourth generator X1^2 is independent, but its brackets leave the span
    def broken_rescale(xbasis):
        x1, x2, x3, _ = xbasis.ops
        return LieBasisSet(("Z1", "Z2", "Z3", "Y"), (x1, x2, x3, x1 * x1), xbasis.theta)

    monkeypatch.setattr(lie, "rescale", broken_rescale)
    rep = lie_report(POINT)
    assert rep.status == "fail" and rep.payload["class"] == "unknown"
    assert "Z-basis table does not close" in rep.payload["problems"]
    assert rep.payload["tables"]["Z"]["class"] == "unknown"


def test_lie_report_fails_when_a_table_violates_the_jacobi_identity(monkeypatch):
    # [J1, J2] gains one J1: the J table still closes, but is no Lie algebra
    real = lie.structure_constants

    def bent(basis):
        sc = real(basis)
        if basis.names[0] == "J1":
            sc.table[(0, 1)] = [sc.table[(0, 1)][0] + 1, *sc.table[(0, 1)][1:]]
        return sc

    monkeypatch.setattr(lie, "structure_constants", bent)
    rep = lie_report(POINT)
    assert rep.summary == f"bilinear-algebra suite at theta = {THETA}: fail (class su2_plus_u1)"
    assert rep.payload["problems"] == ["J-basis table violates the Jacobi identity"]


def test_lie_report_fails_on_the_wrong_class(monkeypatch):
    monkeypatch.setattr(lie, "_classify", lambda sc: "heisenberg_plus_u1")
    rep = lie_report(POINT)
    assert rep.status == "fail" and rep.payload["class"] == "heisenberg_plus_u1"
    assert rep.payload["problems"] == ["classified as heisenberg_plus_u1, expected su2_plus_u1"]


@pytest.mark.parametrize(
    "outside",
    [Coeff(F(1, 10**400)), Coeff(F(14142135623730951, 10**16), 0, -1)],
    ids=["underflows", "cancels-in-float"],
)
def test_exact_residual_is_zero_only_for_a_zero_remainder(outside):
    # both entries are nonzero in Q(i, sqrt2) but have float modulus 0.0
    assert outside and abs(outside) == 0.0
    coeffs, residual = solve_in_span([{(0,): Coeff(1)}], {(1,): outside})
    assert residual > 0.0
    sc = StructureConstants(("e1", "e2"), {(0, 1): coeffs + [Coeff(0)]}, {(0, 1): residual})
    assert not sc.closed
    assert solve_in_span([{(0,): Coeff(1)}], {(0,): Coeff(3)}) == ([Coeff(3)], 0.0)


def test_solve_in_span_pivots_on_the_vectors_only():
    # the out-of-span entry is no pivot: coeffs are the in-span part of the
    # target, and the residual is the tiny remainder, not the whole target
    target = {(0,): Coeff(3), (1,): Coeff(F(1, 10**400))}
    coeffs, residual = solve_in_span([{(0,): Coeff(1)}], target)
    assert coeffs == [Coeff(3)] and 0.0 < residual < 1e-300


def _per_bracket(basis):
    """Each bracket of the basis solved alone by solve_in_span."""
    vectors = [op.terms for op in basis.ops]
    return {
        (i, j): solve_in_span(vectors, commutator(basis.ops[i], basis.ops[j]).terms)
        for i, j in combinations(range(len(basis.ops)), 2)
    }


def _table_and_residuals(sc):
    return {pair: (sc.table[pair], sc.residuals[pair]) for pair in sc.table}


def _on_float(basis):
    ops = tuple(WeylOp({k: c.to_float() for k, c in op.terms.items()}) for op in basis.ops)
    return LieBasisSet(basis.names, ops, float(basis.theta))


A1, A2, AD1 = WeylOp.a(1), WeylOp.a(2), WeylOp.adag(1)
# [a1 + sqrt2 ad1 a1, ad1] = 1 + sqrt2 ad1: the in-span part sqrt2 ad1 and
# the remainder 1, which leaves the span
LEAVING = LieBasisSet(("P", "Q", "R"), (A1 + AD1 * A1 * Coeff(0, 0, 1), AD1, AD1 * AD1), F(0))


def _bases():
    jbasis = bilinear_generators(POINT)
    xbasis = basis_change(jbasis)
    fjbasis = bilinear_generators(AlphaPoint.make(0.6))
    return {
        "J 3/5": jbasis,
        "X 3/5": xbasis,
        "Z 3/5": rescale(xbasis),
        "J undeformed": bilinear_generators(None),
        "leaves the span": LEAVING,
        "J 0.6": fjbasis,
        "Z 0.6": rescale(basis_change(fjbasis)),
        "leaves the span, float": _on_float(LEAVING),
    }


@pytest.mark.parametrize("name", list(_bases()))
def test_structure_constants_equal_the_per_bracket_solves(name):
    # one elimination for the whole table gives each bracket's coeffs and
    # residual literally as its own solve does, on both backends
    basis = _bases()[name]
    sc = structure_constants(basis)
    assert _table_and_residuals(sc) == _per_bracket(basis)
    assert sc.exact == (not name.endswith(("0.6", "float")))
    if name.startswith("leaves"):
        assert not sc.closed and sc.residuals[(0, 1)] > 0.5 and sc.table[(0, 1)][2] == 0
        assert close(sc.table[(0, 1)][1], Coeff(0, 0, 1))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_dependent_basis_raises_on_both_backends(exact):
    dep = LieBasisSet(("P", "Q", "R"), (A1, AD1 * A2, A1 * Coeff(0, 2) + AD1 * A2), F(0))
    dep = dep if exact else _on_float(dep)
    vectors = [op.terms for op in dep.ops]
    keys = sorted({k for v in vectors for k in v})
    assert rank([[v.get(k, Coeff(0)) for v in vectors] for k in keys]) == 2
    with pytest.raises(ValueError, match="generators are linearly dependent"):
        structure_constants(dep)


_ops = st.dictionaries(
    keys=st.tuples(*[st.integers(0, 2)] * 4), values=radical_coeffs, min_size=1, max_size=3
).map(WeylOp)


@given(st.lists(_ops, min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_structure_constants_of_random_sets_equal_the_per_bracket_solves(ops):
    basis = LieBasisSet(tuple(f"e{i}" for i in range(len(ops))), tuple(ops), F(0))
    for b in (basis, _on_float(basis)):
        vectors = [op.terms for op in b.ops]
        keys = sorted({k for v in vectors for k in v})
        if rank([[v.get(k, Coeff(0)) for v in vectors] for k in keys]) < len(ops):
            with pytest.raises(ValueError, match="linearly dependent"):
                structure_constants(b)
        else:
            assert _table_and_residuals(structure_constants(b)) == _per_bracket(b)


def test_exact_residual_beyond_float_range_reads_inf():
    coeffs, residual = solve_in_span([{(0,): Coeff(1)}], {(1,): Coeff(10**400)})
    assert coeffs == [Coeff(0)] and residual == math.inf
    sc = StructureConstants(("e1", "e2"), {(0, 1): coeffs + [Coeff(0)]}, {(0, 1): residual})
    assert not sc.closed


def test_operator_level_jacobi():
    # commutators of concrete operators satisfy Jacobi identically
    j = bilinear_generators(POINT)
    a, b, c = j.ops[0], j.ops[2], j.ops[3]

    def br(x, y):
        return x * y - y * x

    total = br(br(a, b), c) + br(br(b, c), a) + br(br(c, a), b)
    assert total == WeylOp.zero()


def full_jacobi_ok(sc: StructureConstants, tol: float = 0.0) -> bool:
    """The Jacobi identity over every index combination (i, j, k, l)."""
    n = sc.dim
    c = [[sc.bracket(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = Coeff(0, exact=sc.exact)
                    for m in range(n):
                        acc = acc + c[i][j][m] * c[m][k][l]
                        acc = acc + c[j][k][m] * c[m][i][l]
                        acc = acc + c[k][i][m] * c[m][j][l]
                    if (tol == 0.0 and acc) or (tol > 0.0 and abs(acc) > tol):
                        return False
    return True


_ENTRIES = [0, 0, 0, 1, -1, 2, F(1, 2), Coeff(0, 1), Coeff(0, -2), Coeff(1, 1)]
_SCALES = [1, -1, 2, F(-3, 2), Coeff(0, 1), Coeff(1, -1)]
# genuine Lie algebras; in each, the first three generators close on their own
_ALGEBRAS = [
    structure_constants(bilinear_generators(None)),
    structure_constants(basis_change(bilinear_generators(POINT))),
    structure_constants(rescale(basis_change(bilinear_generators(POINT)))),
]


def random_table(rng: random.Random, n: int, exact: bool = True) -> StructureConstants:
    """A dense random table (Jacobi almost always fails), or a genuine algebra
    under a random permutation and rescaling of its basis, perturbed in one
    entry half of the time."""
    if rng.random() < 1 / 3:
        table = {
            ij: [Coeff.lift(rng.choice(_ENTRIES)) for _ in range(n)]
            for ij in combinations(range(n), 2)
        }
    else:
        base = rng.choice(_ALGEBRAS)
        perm = rng.sample(range(n), n)  # f_i = s_i e_perm[i]
        s = [Coeff.lift(rng.choice(_SCALES)) for _ in range(n)]
        table = {}
        for i, j in combinations(range(n), 2):
            v = base.bracket(perm[i], perm[j])
            table[(i, j)] = [v[perm[m]] * s[i] * s[j] / s[m] for m in range(n)]
        if rng.random() < 0.5:
            ij = rng.choice(list(table))
            table[ij][rng.randrange(n)] += rng.choice(_SCALES)
    if not exact:
        table = {ij: [c.to_float() for c in v] for ij, v in table.items()}
    names = tuple(f"e{i}" for i in range(n))
    return StructureConstants(names, table, {ij: 0.0 for ij in table})


@given(st.integers(0, 2**32), st.integers(3, 4), st.booleans())
@settings(max_examples=150, deadline=None)
def test_jacobi_on_triples_matches_the_full_loop(seed, n, exact):
    sc = random_table(random.Random(seed), n, exact)
    assert sc.jacobi_ok() == full_jacobi_ok(sc, 0.0 if exact else 1e-10)


def test_random_tables_reach_both_jacobi_outcomes():
    rng = random.Random(29)
    outcomes = []
    for n in (3, 4):
        for _ in range(60):
            sc = random_table(rng, n)
            ok = sc.jacobi_ok()
            assert ok == full_jacobi_ok(sc)
            outcomes.append(ok)
    assert 10 <= sum(outcomes) <= len(outcomes) - 10

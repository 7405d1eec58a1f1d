"""Operation-count guards for the exact hot paths.

Wall time is too noisy to gate on a shared host; the number of scalar
products a computation performs is not, nor is the number of Fraction
objects it builds, nor whether an exact check leaves the exact field.  The
product bounds sit well above the counts of the current routes and far
below those of the per-term routes they replaced.
"""

import functools
import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from bihermite import coeffs, deform, lie, linalg, poly, report
from bihermite.cli import _random_rational_gl2, main
from bihermite.coeffs import Coeff
from bihermite.deform import (
    GL2,
    AlphaPoint,
    alpha_matrix,
    biorthogonality_check,
    dual_family,
    eigenvalue_structure_check,
    intertwine_check,
    level_basis,
    monomial_to_hermite,
    rep_laws_check,
    rep_matrix,
)
from bihermite.hermite import hermite_sum, orthonormality_check
from bihermite.lie import (
    StructureConstants,
    basis_change,
    bilinear_generators,
    lie_report,
    rescale,
    structure_constants,
)
from bihermite.poly import BiPoly, inner_product
from bihermite.weyl import WeylOp, commutator

POINT = AlphaPoint.make(F(3, 5))


@contextmanager
def counted_products():
    """Count Coeff products, whichever operand side starts them: all of them
    in calls[0], and in calls[1] those whose value has a denominator."""
    calls = [0, 0]
    mul, rmul = Coeff.__dict__["__mul__"], Coeff.__dict__["__rmul__"]

    def counting(self, other):
        out = mul(self, other)
        calls[0] += 1
        calls[1] += getattr(out, "q", 1) != 1
        return out

    Coeff.__mul__ = Coeff.__rmul__ = counting
    try:
        yield calls
    finally:
        Coeff.__mul__, Coeff.__rmul__ = mul, rmul


@contextmanager
def counted_fractions():
    """Count Fraction objects built, by whichever module."""
    calls = [0]
    new = F.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return new.__func__(cls, *args, **kwargs)

    F.__new__ = counting
    try:
        yield calls
    finally:
        F.__new__ = new


@contextmanager
def counted_conversions(exact_only=False):
    """Count conversions of a Coeff to a float or a complex number; with
    exact_only, those of exact values alone."""
    calls = [0]
    saved = {name: Coeff.__dict__[name] for name in ("to_complex", "to_float")}

    def counting(method):
        def wrapper(self):
            calls[0] += self.exact or not exact_only
            return method(self)

        return wrapper

    for name, method in saved.items():
        setattr(Coeff, name, counting(method))
    try:
        yield calls
    finally:
        for name, method in saved.items():
            setattr(Coeff, name, method)


def _biorth_inner_products(g, Lmax):
    """Every dual x family inner product of the levels up to Lmax."""
    g_dual = g.conj_transpose().inverse()
    duals = [p for L in range(Lmax + 1) for p in level_basis(L, g_dual)]
    family = [p for L in range(Lmax + 1) for p in level_basis(L, g)]
    return lambda: [inner_product(p, q) for p in duals for q in family]


def _zbasis():
    return rescale(basis_change(bilinear_generators(POINT)))


@contextmanager
def counted_weyl_products():
    """Count WeylOp-by-WeylOp products (scalar multiples are not counted)."""
    calls = [0]
    mul = WeylOp.__dict__["__mul__"]

    def counting(self, other):
        calls[0] += isinstance(other, WeylOp)
        return mul(self, other)

    WeylOp.__mul__ = WeylOp.__rmul__ = counting
    try:
        yield calls
    finally:
        WeylOp.__mul__ = WeylOp.__rmul__ = mul


@pytest.mark.parametrize(
    "work",
    [
        lambda g: lambda: rep_matrix(g, 12),
        lambda g: lambda: list(zip(range(13), deform._level_walk(deform._cleared(g)[1], False))),
        lambda g: _biorth_inner_products(g, 6),
        lambda g: lambda: biorthogonality_check(g, 6),
        lambda g: lambda: level_basis(6, g),
        lambda g: lambda: orthonormality_check(10),
        lambda g: lambda ops=_zbasis().ops: [commutator(x, y) for x in ops for y in ops],
        lambda g: lambda basis=_zbasis(): structure_constants(basis),
    ],
    ids=[
        "rep_matrix L12",
        "level walk 0..12",
        "784 biorth inner products",
        "biorth Lmax 6",
        "level_basis L6",
        "orthonormality L10",
        "Z-basis commutators",
        "Z-basis structure constants",
    ],
)
def test_exact_hot_paths_build_no_fractions(work):
    # integer numerators over one denominator: with four Fraction slots per
    # value the first three built 1,948, 33,852 and 2,361 Fractions
    run = work(alpha_matrix(POINT))
    with counted_fractions() as calls:
        run()
    assert calls[0] == 0


@pytest.mark.parametrize(
    "g",
    [
        GL2(Coeff(1, 2), Coeff(F(3, 7)), Coeff(F(-1, 3)), Coeff(2, -1)),
        GL2(2, 1, -1, 4),
        alpha_matrix(POINT),
    ],
    ids=["generic", "defective", "alpha 3/5"],
)
def test_exact_eigenvalue_check_never_leaves_the_field(g):
    with counted_conversions() as calls:
        rep = eigenvalue_structure_check(g, 5)
        assert rep.ok and rep.payload["mode"] == "exact-power-sums"
    assert calls[0] == 0


def _seed_pair(seed):
    """The float g and h of `verify repmat --seed <seed> --backend float`."""
    rng = random.Random(seed)
    return _random_rational_gl2(rng, False), _random_rational_gl2(rng, False)


def test_float_rep_laws_products_and_conversions():
    g, h = _seed_pair(0)  # drawn exact, then converted: 8 conversions
    with counted_products() as products, counted_conversions(exact_only=True) as conversions:
        assert rep_laws_check(g, h, 5).ok
    # 2,007 products and 340 exact-to-float conversions with the Coeff laws
    # beside the walk (WeylOp.apply raises, E on level views, the Fraction
    # weights of RepMatrix.adjoint); 914 and 91 on the walk's float lists,
    # the 91 in the elimination inverse while its identity half was exact.
    # At the dyadic value of g and h, 34 products clear them and form GH,
    # G*, adj G and det G
    assert 0 < products[0] <= 1000 and conversions[0] == 0


def test_float_intertwine_products_and_conversions():
    with counted_products() as products, counted_conversions(exact_only=True) as conversions:
        assert intertwine_check(alpha_matrix(AlphaPoint.make(0.6)), 5).ok
    # 702 products and 67 conversions when E was applied to each column's
    # Coeff combination; E applied to the monomials makes 52 of the 58 left,
    # and clearing g at its dyadic value the other 6
    assert 0 < products[0] <= 60 and conversions[0] == 0


@contextmanager
def counted_inverses():
    """Count Coeff inverses."""
    calls = [0]
    inverse = Coeff.__dict__["inverse"]

    def counting(self):
        calls[0] += 1
        return inverse(self)

    Coeff.inverse = counting
    try:
        yield calls
    finally:
        Coeff.inverse = inverse


def test_exact_verify_eigen_stays_integral(capsys):
    with counted_fractions() as fractions, counted_inverses() as inverses, counted_products() as products:
        assert main(["verify", "eigen", "--Lmax", "8"]) == 0
    # the Hessenberg reduction took 56 inverses, 6,606 products and 2
    # Fractions (the generic case's entries, now built once at import); the
    # level walks make most of the products that are left, 1,860 when the
    # traces and determinants were formed again at each level
    assert fractions[0] == 0 and inverses[0] == 0
    assert 0 < products[0] <= 1700


def test_exact_verify_eigen_walks_integral_matrices(capsys):
    with counted_products() as products:
        assert main(["verify", "eigen", "--Lmax", "8"]) == 0
    # the levels of G = q_g g: those of the generic g itself formed 453
    # products with a denominator
    assert products[0] > 0 and products[1] == 0


def test_float_verify_eigen_products(capsys):
    with counted_products() as products:
        assert main(["verify", "eigen", "--Lmax", "8", "--backend", "float"]) == 0
    # the Newton sums and the h_L recurrence run on float lists, as on
    # exact input; their Coeff loops made 6,770 products, and 4,808 were
    # left when the traces and determinants were formed again at each
    # level.  The Hessenberg reductions and the level walks make most of
    # those left
    assert 0 < products[0] <= 4600


def test_rep_matrix_products_at_level_twelve():
    g = alpha_matrix(POINT)
    with counted_products() as calls:
        rep_matrix(g, 12)
    assert 0 < calls[0] <= 1500  # 7,412 with powers formed per term


def test_level_basis_products_at_level_twelve():
    g = alpha_matrix(POINT)
    with counted_products() as calls:
        level_basis(12, g)
    assert 0 < calls[0] <= 2500  # 10,283 by operator powers applied to 1


def test_biorthogonality_products_at_level_six():
    g = alpha_matrix(POINT)
    with counted_products() as calls:
        assert biorthogonality_check(g, 6).ok
    # 17,378 with a product and a sum per pairing term in gram, 1,002 with
    # the expanded families paired by gram, 462 through the undeformed Gram
    # with the Coeff level matrices, 22 on the walks' integral lists with
    # g_dual cleared beside g; 10 with adj(G^T) walked in its place
    assert 0 < calls[0] <= 12


def count_calls(monkeypatch, module, name) -> list:
    """calls[0] counts the calls of module.name made through the module,
    until the test ends."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_orthonormality_sums_and_compares_only_the_paired_entries(monkeypatch):
    sums = count_calls(monkeypatch, poly, "_sum_products")
    compares = count_calls(monkeypatch, coeffs, "close")
    rep = orthonormality_check(10)
    assert rep.ok and rep.payload["pairs"] == 66 * 66
    # H[m,n] lies in the sector m - n alone, so the rows hold the 256 pairs
    # that share a sector; all 4,356 were compared when gram returned dense rows
    assert sums[0] == compares[0] == 256


def test_gram_builds_one_factorial_table(monkeypatch):
    calls = count_calls(monkeypatch, poly, "factorial")
    assert orthonormality_check(10).ok
    # one gram call, whose table holds 0!..20!: a + d is at most 10 + 10.
    # One factorial call per pairing triple made 1,925 here and 226,848 at
    # total degree 30
    assert calls[0] == 21


def test_biorthogonality_compares_only_the_paired_blocks(monkeypatch):
    compares = count_calls(monkeypatch, coeffs, "close")
    checks = count_calls(monkeypatch, report.Tally, "check")
    rep = biorthogonality_check(alpha_matrix(POINT), 6)
    assert rep.summary.endswith("(784 pairings)")
    # the 140 pairings of the levels' own blocks, each compared with
    # det(G)^L W_L as component ints, not as Coeffs under close; all 784 were
    # compared when every block was summed, the cross-level ones to the
    # exact zero
    assert checks[0] == 140 and compares[0] == 0


@contextmanager
def counted_coeffs():
    """Count Coeff objects built, by _make or by the constructor."""
    calls = [0]
    new, init = coeffs._new, Coeff.__dict__["__init__"]

    def counting_new(cls):
        calls[0] += 1
        return new(cls)

    def counting_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    coeffs._new, Coeff.__init__ = counting_new, counting_init
    try:
        yield calls
    finally:
        coeffs._new, Coeff.__init__ = new, init


@pytest.mark.parametrize("point", [POINT, AlphaPoint.make(0.6)], ids=["exact", "float"])
def test_biorthogonality_inverts_nothing_and_builds_no_coeff_per_pairing(monkeypatch, point):
    # the undeformed Gram and its basis polynomials are kept from a first
    # call, so the count is of the pairing route alone
    grams = {}

    def kept_gram(ps, qs):
        if len(ps) not in grams:
            grams[len(ps)] = poly.gram(ps, qs)
        return grams[len(ps)]

    monkeypatch.setattr(deform, "gram", kept_gram)
    monkeypatch.setattr(deform, "hermite_sum", functools.cache(hermite_sum))
    gl2_inverses = count_calls(monkeypatch, GL2, "inverse")
    g = alpha_matrix(point)
    built = []
    for Lmax in (4, 8):
        assert biorthogonality_check(g, Lmax).ok
        with counted_coeffs() as coeffs_built, counted_inverses() as inverses:
            rep = biorthogonality_check(g, Lmax)
        assert rep.ok and inverses[0] == 0
        built.append(coeffs_built[0])
    # reading g at its exact value, clearing it and forming adj(G^T) and
    # det(G) build the same few Coeffs at any Lmax: 15 exact, 22 float.  A
    # Coeff per pairing and per target made 104 and 364 (111 and 371 float),
    # and the inverse of g^† made g_dual and its q_d
    assert gl2_inverses[0] == 0
    assert built[0] == built[1] <= 25


def test_float_biorthogonality_conversions():
    # 314 exact values converted with the expanded families paired by gram,
    # whose exact Hermite coefficients met float level-matrix entries; 86
    # through the undeformed Gram, all in comparing float pairings with
    # their exact targets.  The pairings are exact at the dyadic value of g
    with counted_conversions(exact_only=True) as calls:
        assert biorthogonality_check(alpha_matrix(AlphaPoint.make(0.6)), 4).ok
    assert calls[0] == 0


def test_float_biorthogonality_products():
    g = alpha_matrix(AlphaPoint.make(0.6))
    with counted_products() as calls:
        rep = biorthogonality_check(g, 6)
    # 1,564 when the pairings were Coeff chains over the walks' Coeff view,
    # and 24 when g^† was inverted and g_dual cleared beside g.  The 12 left
    # clear g at its dyadic value and take det(G) and the determinants that
    # each GL2 checks.  Two pairings fell outside FLOAT_TOL when they were
    # float
    assert rep.ok and rep.summary == "biorthogonality up to level 6: pass (784 pairings)"
    assert 0 < calls[0] <= 12


@pytest.mark.parametrize(
    "check, point, Lmax",
    [
        (lambda g, L: rep_laws_check(g, g, L), POINT, 8),
        (intertwine_check, POINT, 8),
        (lambda g, L: rep_laws_check(g, g, L), AlphaPoint.make(0.6), 8),
        (intertwine_check, AlphaPoint.make(0.6), 8),
    ],
    ids=["rep_laws_check", "intertwine_check", "float-rep_laws_check", "float-intertwine_check"],
)
def test_deformed_families_are_raised_without_operator_products(check, point, Lmax):
    with counted_weyl_products() as calls:
        assert check(alpha_matrix(point), Lmax).ok
    # 81 and 285 (117 and 465 WeylOp.__mul__ calls) at Lmax 8 with
    # normal-ordered powers.  Both backends raise integral term maps
    # (_raised_walk), a float g at its dyadic value
    assert calls[0] == 0


@pytest.mark.parametrize(
    "Lmax, applies, backend",
    [(5, 20, "exact"), (7, 35, "exact"), (5, 20, "float"), (7, 35, "float")],
    ids=["5-20", "7-35", "float-5-20", "float-7-35"],
)
def test_verify_repmat_raises_each_level_once(monkeypatch, capsys, Lmax, applies, backend):
    calls = {"_raised": 0, "apply": 0}

    def counted(name, step):
        def counting(*args):
            calls[name] += 1
            return step(*args)

        return counting

    monkeypatch.setattr(deform, "_raised", counted("_raised", deform._raised))
    monkeypatch.setattr(WeylOp, "apply", counted("apply", WeylOp.apply))
    assert main(["verify", "repmat", "--Lmax", str(Lmax), "--backend", backend]) == 0
    # one walk raises L + 1 polynomials at each level 1..Lmax, as integral
    # term maps (deform._raised steps); raising levels 0..L again for each L
    # made 50 and 112, and float input took WeylOp.apply steps
    assert calls == {"_raised": applies, "apply": 0}


LAW_PAIR = GL2(Coeff(1, 2), 1, 0, Coeff(3)), GL2(2, Coeff(0, 1), 1, 1)
FLOAT_LAW_PAIR = tuple(GL2(*(c.to_float() for c in m.entries())) for m in LAW_PAIR)


# a pair over Q(i) with denominators, so that q_g and q_h are not 1
RATIONAL_LAW_PAIR = (
    GL2(Coeff(F(1, 2), 2), F(1, 3), 0, Coeff(3, F(-1, 5))),
    GL2(2, Coeff(0, F(2, 3)), F(1, 7), 1),
)


def test_exact_rep_laws_form_no_coeff_product_in_a_walk():
    counts = []
    for Lmax in (3, 7):
        with counted_products() as calls:
            assert rep_laws_check(*RATIONAL_LAW_PAIR, Lmax).ok
        counts.append(calls[0])
    # the six level walks, the raised family and every law run on integer
    # lists; the 30 products left clear g and h and form GH, G*, adj G and
    # det G, at any Lmax.  The Coeff walks formed 384 at Lmax 3 and 2,995 at
    # Lmax 7, 1,972 of them with a denominator
    assert counts[0] == counts[1] <= 40


def test_exact_intertwine_forms_no_coeff_product_in_a_walk():
    g = alpha_matrix(POINT)
    extra = []
    for Lmax in (4, 8):
        with counted_products() as monomials:
            for total in range(Lmax + 1):
                for m in range(total + 1):
                    monomial_to_hermite(BiPoly.monomial(m, total - m))
        with counted_products() as calls:
            assert intertwine_check(g, Lmax).ok
        extra.append(calls[0] - monomials[0])
    # beyond E applied to the monomials (170 products at Lmax 8), 6 clear g,
    # at any Lmax; the Coeff walks and E applied to each column's
    # combination made 3,854 in all at Lmax 8, 3,679 with a denominator
    assert extra[0] == extra[1] <= 10


def test_exact_verify_eigen_forms_no_coeff_product_in_a_walk(capsys):
    counts = []
    for Lmax in (4, 8):
        with counted_products() as calls:
            assert main(["verify", "eigen", "--Lmax", str(Lmax)]) == 0
        counts.append(calls[0])
    # 48 and 84: tr G^j and det G^j take 3 products a level for each of the
    # 3 cases, the walks none.  The Coeff walks made it 294 and 1,530
    assert counts[1] <= 120 and counts[1] - counts[0] == 3 * 3 * 4


def test_rep_laws_check_walks_each_level_matrix_once(monkeypatch):
    walk = deform._level_walk
    walked = []

    def counting(g, radical):
        walked.append(g)
        return walk(g, radical)

    monkeypatch.setattr(deform, "_level_walk", counting)
    g, h = LAW_PAIR
    assert rep_laws_check(g, h, 4).ok
    # 1, G, H, GH, G^dagger and the adjugate of G, with G = q_g g and
    # H = q_h h integral; the action law reads the walk of G that the other
    # laws hold
    (_, G), (_, H) = deform._cleared(g), deform._cleared(h)
    adj = GL2(G.g22, -G.g12, -G.g21, G.g11)
    want = [GL2(1, 0, 0, 1), G, H, G @ H, G.conj_transpose(), adj]
    assert walked == want
    # a float pair is walked at the exact value it holds, here the exact pair
    # itself, adjugate included: no walk of g^-1 and no float slot
    walked.clear()
    assert rep_laws_check(*FLOAT_LAW_PAIR, 4).ok
    assert walked == want and all(m.is_exact() for m in walked)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_rep_laws_check_eliminates_on_neither_backend(monkeypatch, exact):
    eliminate = linalg._eliminate
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    assert rep_laws_check(*(LAW_PAIR if exact else FLOAT_LAW_PAIR), 4).ok
    # both check M(adj G, L) M(G, L) = det(G)^L I, a float g at its dyadic
    # value; float g inverted each level by elimination, 5 calls here
    assert calls[0] == 0


def test_lie_report_solves_each_table_in_one_elimination(monkeypatch):
    eliminate, solve_table = linalg._eliminate, lie.structure_constants
    inside, calls = [False], []

    def counting(*args):
        calls.append(inside[0])
        return eliminate(*args)

    def tracking(basis):
        inside[0] = True
        try:
            return solve_table(basis)
        finally:
            inside[0] = False

    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(lie, "structure_constants", tracking)
    assert lie_report(POINT).ok
    # J, X and Z: one elimination each, for the rank and all 6 brackets; a
    # rank call and one solve per bracket made 21
    assert calls.count(True) == 3


def test_float_lie_report_converts_no_exact_value():
    # 1/2, -i/2, i, the zero fills and the Killing form's start come from the
    # operands: an exact constant met a float 129 times per call
    with counted_conversions(exact_only=True) as calls:
        assert lie_report(AlphaPoint.make(0.6)).ok
    assert calls[0] == 0


def test_dual_family_builds_each_matrix_once(monkeypatch):
    calls, grams = [], []

    def counting(g, L):
        calls.append(g)
        return rep_matrix(g, L)

    def recorded(ps, qs):
        grams.append((list(ps), list(qs)))
        return poly.gram(ps, qs)

    def refused(*args):
        raise AssertionError("consistent is read off the level walk's pairings")

    monkeypatch.setattr(deform, "rep_matrix", counting)
    monkeypatch.setattr(deform, "gram", recorded)
    for name in ("mat_inverse", "mat_mul"):
        monkeypatch.setattr(linalg, name, refused)
    monkeypatch.setattr(deform.RepMatrix, "adjoint", refused)
    monkeypatch.setattr(deform, "close", refused)
    g = alpha_matrix(POINT)
    for L in range(5):
        calls.clear()
        grams.clear()
        dual_family(g, L)
        # one M(g_dual, L) serves the basis and the direct matrix, and the
        # pairings read the walks; 2 calls when consistent inverted the level
        # adjoint of M(g, L)
        assert calls == [g.conj_transpose().inverse()]
        # one Gram, of the L + 1 polynomials of level L alone; (L+1)(L+2)/2,
        # those of levels 0..L, when every block up to L was paired
        level = [hermite_sum(r, L - r) for r in range(L + 1)]
        assert grams == [(level, level)]


def test_float_dual_family_converts_no_exact_value():
    # 70 with the inverse of the level adjoint and the Coeff Hermite
    # coefficients: 25 when float entries met the adjoint's exact weights,
    # 45 when they met the coefficients of H[r, L-r]
    g = alpha_matrix(AlphaPoint.make(0.6))
    with counted_conversions(exact_only=True) as calls:
        assert dual_family(g, 4).consistent
    assert calls[0] == 0


def test_jacobi_products_on_the_alpha_tables():
    jbasis = bilinear_generators(POINT)
    tables = [structure_constants(b) for b in (jbasis, basis_change(jbasis))]
    tables.append(structure_constants(rescale(basis_change(jbasis))))
    counts = []
    for sc in tables:
        with counted_products() as calls:
            assert sc.jacobi_ok()
        counts.append(calls[0])
    # 3,072 each over every index combination.  In the X and Z tables every
    # Jacobi term has a zero structure constant; the J table's do not all.
    assert counts[0] > 0 and all(c <= 400 for c in counts)


@pytest.mark.parametrize(
    "point, tables",
    [(POINT, 3), (AlphaPoint.make(0.5**0.5), 1)],
    ids=["alpha 3/5", "theta 1"],
)
def test_lie_report_checks_each_table_once(monkeypatch, point, tables):
    jacobi_ok = StructureConstants.jacobi_ok
    calls = []

    def counting(self):
        calls.append(self.names)
        return jacobi_ok(self)

    monkeypatch.setattr(StructureConstants, "jacobi_ok", counting)
    assert lie_report(point).ok
    # J, X and Z at alpha 3/5; the limit table alone at theta = 1
    assert len(calls) == tables and len(set(calls)) == tables


def test_counter_is_removed_afterwards():
    before = Coeff.__dict__["__mul__"]
    with counted_products():
        Coeff(1) * Coeff(2)
    assert Coeff.__dict__["__mul__"] is before and Coeff.__dict__["__rmul__"] is before
    new = F.__dict__["__new__"]
    with counted_fractions() as calls:
        F(1, 3)
    assert calls[0] == 1 and F.__dict__["__new__"] is new
    saved = Coeff.__dict__["to_complex"], Coeff.__dict__["to_float"]
    with counted_conversions() as calls:
        abs(Coeff(1, 1))
        Coeff(1).to_float()
    assert calls[0] == 2
    with counted_conversions(exact_only=True) as calls:
        Coeff(1).to_float()
        Coeff(1.0, exact=False).to_complex()
    assert calls[0] == 1
    inverse = Coeff.__dict__["inverse"]
    with counted_inverses() as calls:
        Coeff(2).inverse()
    assert calls[0] == 1 and Coeff.__dict__["inverse"] is inverse
    with counted_weyl_products() as calls:
        WeylOp.adag(1) * WeylOp.a(1)
        WeylOp.adag(1) * 2
    assert calls[0] == 1 and WeylOp.__dict__["__mul__"] is WeylOp.__dict__["__rmul__"]
    assert (Coeff.__dict__["to_complex"], Coeff.__dict__["to_float"]) == saved

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihermite.coeffs import Coeff, close
from bihermite.deform import deformed_lowering, deformed_raising
from bihermite.ncqm import AlphaPoint, alpha_matrix
from bihermite.poly import BiPoly
from bihermite.weyl import WeylOp, commutator, position_momentum_ops

from conftest import bipolys, invertible_gl2, radical_coeffs, weylops

A1, A2 = WeylOp.a(1), WeylOp.a(2)
AD1, AD2 = WeylOp.adag(1), WeylOp.adag(2)
ONE_OP = WeylOp.one()


def test_single_rewrite():
    assert A1 * AD1 == AD1 * A1 + ONE_OP


def test_cross_mode_commutes():
    assert A2 * AD1 == AD1 * A2


def test_number_operator_square():
    n1 = AD1 * A1
    frozen = AD1**2 * A1**2 + n1
    assert n1 * n1 == frozen
    # oracle: both sides act identically on a spread of monomials
    for a in range(4):
        for b in range(3):
            mono = BiPoly.monomial(a, b)
            assert (n1 * n1).apply(mono) == n1.apply(n1.apply(mono))
            assert frozen.apply(mono) == n1.apply(n1.apply(mono))


def test_basic_commutators():
    assert commutator(A1, AD1) == ONE_OP
    assert commutator(A1, A2) == WeylOp.zero()
    assert commutator(A1, AD2) == WeylOp.zero()
    assert commutator(AD1, AD2) == WeylOp.zero()


def test_apply_examples():
    z, zbar, one = BiPoly.z(), BiPoly.zbar(), BiPoly.one()
    assert AD1.apply(one) == z
    assert (AD1 * AD2).apply(one) == z * zbar - one
    assert A1.apply(z**2) == 2 * z


def test_dagger():
    w = AD1 * A2 * Coeff(0, 1)
    assert w.dagger() == AD2 * A1 * Coeff(0, -1)
    assert w.dagger().dagger() == w
    x = AD1 * A1 + AD2 * Coeff(F(1, 3))
    assert (w * x).dagger() == x.dagger() * w.dagger()


def test_position_momentum_ccr():
    ops = position_momentum_ops()
    i = Coeff(0, 1)
    for m in (1, 2):
        assert commutator(ops[f"q{m}"], ops[f"p{m}"]) == WeylOp.scalar(i)
    assert commutator(ops["q1"], ops["p2"]) == WeylOp.zero()
    assert commutator(ops["q1"], ops["q2"]) == WeylOp.zero()
    assert commutator(ops["p1"], ops["p2"]) == WeylOp.zero()
    # hermiticity of the canonical pairs
    for name, op in ops.items():
        assert op.dagger() == op, name


def test_deformed_commutators_at_three_fifths():
    g = alpha_matrix(AlphaPoint.make(F(3, 5)))
    a1, a2 = deformed_lowering(g)
    ad1, ad2 = deformed_raising(g)
    assert commutator(a1, ad1) == ONE_OP
    assert commutator(a2, ad2) == ONE_OP
    assert commutator(a1, ad2) == WeylOp.scalar(Coeff(0, F(24, 25)))


def test_lowering_convention_vs_literal_transcription():
    """The deformed annihilators are the formal adjoints of the raising pair.

    Wiring the cross mode as a raising operator instead (the tempting
    literal reading of the definition) breaks both the unit commutator and
    vacuum annihilation, so only the adjoint convention is viable.
    """
    g = alpha_matrix(AlphaPoint.make(F(3, 5)))
    ad1, _ = deformed_raising(g)
    literal_a1 = A1 * g.g11.conj() + AD2 * g.g21.conj()
    assert commutator(literal_a1, ad1) == WeylOp.scalar(Coeff(F(9, 25)))  # alpha^2, not 1
    assert literal_a1.apply(BiPoly.one()) != BiPoly.zero()
    # the adjoint convention fixes both failures
    a1, _ = deformed_lowering(g)
    assert commutator(a1, ad1) == ONE_OP
    assert a1.apply(BiPoly.one()) == BiPoly.zero()
    assert a1 == ad1.dagger()


def test_json_round_trip():
    w = AD1**2 * A2 * Coeff(F(1, 3), F(-2, 7)) + ONE_OP
    assert WeylOp.from_json_dict(w.to_json_dict()) == w


def test_pretty():
    assert (AD1 * A1 + ONE_OP).pretty() == "ad1 a1 + 1"


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        WeylOp({(0, 0, -1, 0): Coeff(1)})


@given(weylops, weylops, weylops)
@settings(max_examples=40)
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(weylops, weylops, bipolys)
@settings(max_examples=40)
def test_representation_faithful(a, b, p):
    assert (a * b).apply(p) == a.apply(b.apply(p))


def composed_apply(op: WeylOp, p: BiPoly) -> BiPoly:
    """The raising steps as polynomial arithmetic: z q - dq/dzbar for ad1 and
    zbar q - dq/dz for ad2, after the lowering derivatives."""
    z, zbar = BiPoly.z(), BiPoly.zbar()
    total = BiPoly.zero()
    for (c1, c2, d1, d2), c in op.terms.items():
        q = p.diff("z", d1).diff("zbar", d2)
        for _ in range(c2):
            q = zbar * q - q.diff("z")
        for _ in range(c1):
            q = z * q - q.diff("zbar")
        total = total + q * c
    return total


def _random_coeff(rng, exact):
    re, im = F(rng.randint(-6, 6), rng.randint(1, 5)), F(rng.randint(-6, 6), rng.randint(1, 5))
    return Coeff(re, im) if exact else Coeff(float(re), float(im), exact=False)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("seed", range(5))
def test_apply_matches_the_composed_raising_route(exact, seed):
    rng = random.Random(seed)
    for _ in range(8):
        words = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(rng.randint(1, 4))]
        op = WeylOp({w: _random_coeff(rng, exact) for w in words})
        p = BiPoly(
            {(rng.randint(0, 4), rng.randint(0, 4)): _random_coeff(rng, exact) for _ in range(5)}
        )
        got, want = op.apply(p), composed_apply(op, p)
        assert got == want
        assert list(got.terms) == list(want.terms)


@given(invertible_gl2)
@settings(max_examples=40)
def test_deformed_lowering_kills_vacuum(g):
    a1, a2 = deformed_lowering(g)
    one = BiPoly.one()
    assert a1.apply(one) == BiPoly.zero()
    assert a2.apply(one) == BiPoly.zero()


@given(weylops)
@settings(max_examples=40)
def test_json_round_trip_property(w):
    assert WeylOp.from_json_dict(w.to_json_dict()) == w


@given(weylops, weylops)
@settings(max_examples=40)
def test_dagger_antihomomorphism(a, b):
    assert (a * b).dagger() == b.dagger() * a.dagger()
    assert a.dagger().dagger() == a


# words up to degree 3 in each slot, so that a term pair contracts up to
# three times per mode, with coefficients in all of Q(i, sqrt2)
radical_weylops = st.dictionaries(
    keys=st.tuples(*[st.integers(0, 3)] * 4), values=radical_coeffs, max_size=4
).map(WeylOp)


def _float_copy(w: WeylOp) -> WeylOp:
    return WeylOp({k: c.to_float() for k, c in w.terms.items()})


@given(radical_weylops, radical_weylops)
@settings(max_examples=80, deadline=None)
def test_commutator_is_the_difference_of_the_products(a, b):
    # the contraction route against the full products, which form and cancel
    # every uncontracted word
    assert commutator(a, b) == a * b - b * a
    fa, fb = _float_copy(a), _float_copy(b)
    got = commutator(fa, fb)
    assert close(got, fa * fb - fb * fa)
    assert not any(c.exact for c in got.terms.values())


def test_commutator_keeps_only_contracted_words():
    # the free word ad1^2 ad2 a1^2 a2 of both products cancels; every word
    # left has at least one contraction, so fewer than six letters
    a = WeylOp({(2, 0, 0, 1): Coeff(1, 1)})
    b = WeylOp({(0, 1, 2, 0): Coeff(0, 0, 1)})
    got = commutator(a, b)
    assert got == a * b - b * a
    assert got and all(sum(key) < 6 for key in got.terms)
    assert commutator(a, a) == WeylOp.zero() and commutator(A1, A2) == WeylOp.zero()
    assert commutator(A1, AD1) == ONE_OP and commutator(AD2, A2) == -ONE_OP

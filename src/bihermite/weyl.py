"""Normal-ordered algebra of two independent bosonic modes.

An operator is a finite sum of words (ad1^c1 ad2^c2 a1^d1 a2^d2) with Coeff
weights, where ad/a are raising/lowering operators obeying
[a_i, ad_j] = delta_ij and all other basic commutators vanish.  Products are
rewritten back to normal order eagerly, so operator equality is literal map
equality.  Operators act on BiPoly through the concrete realization

    a1 = d/dz,   ad1 = z - d/dzbar,   a2 = d/dzbar,   ad2 = zbar - d/dz,

which represents the same commutation relations on polynomials in (z, zbar).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .coeffs import Coeff
from .poly import BiPoly, SparseMap

__all__ = ["WeylOp", "commutator", "position_momentum_ops"]


class WeylOp(SparseMap):
    """Normal-ordered two-boson operator: map {(c1, c2, d1, d2): Coeff}."""

    __slots__ = ()
    KEYS = ("c1", "c2", "d1", "d2")
    SYMBOLS = ("ad1", "ad2", "a1", "a2")

    @classmethod
    def scalar(cls, value):
        return cls({(0, 0, 0, 0): Coeff.lift(value)})

    @classmethod
    def a(cls, mode: int):
        """Lowering operator of mode 1 or 2."""
        if mode not in (1, 2):
            raise ValueError("mode must be 1 or 2")
        return cls({(0, 0, 1, 0) if mode == 1 else (0, 0, 0, 1): Coeff(1)})

    @classmethod
    def adag(cls, mode: int):
        """Raising operator of mode 1 or 2."""
        if mode not in (1, 2):
            raise ValueError("mode must be 1 or 2")
        return cls({(1, 0, 0, 0) if mode == 1 else (0, 1, 0, 0): Coeff(1)})

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, WeylOp):
            return super().__mul__(other)
        return self._like(_normal_ordered(self, other, False))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Coeff.lift(other).inverse()

    def dagger(self) -> WeylOp:
        """Formal adjoint; the reversed word is already normal ordered."""
        terms = self.terms.items()
        return self._like({(d1, d2, c1, c2): c.conj() for (c1, c2, d1, d2), c in terms})

    # -- representation on polynomials --------------------------------------

    def apply(self, p: BiPoly) -> BiPoly:
        """Act on a polynomial via a1 = d/dz, ad1 = z - d/dzbar, and mode-2 mirror."""
        total = BiPoly.zero()
        for (c1, c2, d1, d2), c in self.terms.items():
            q = p.diff("z", d1).diff("zbar", d2)
            for _ in range(c2):
                q = q._like(_raise(q.terms, 2))
            for _ in range(c1):
                q = q._like(_raise(q.terms, 1))
            total = total + q * c
        return total


def _raise(terms: dict, mode: int) -> dict:
    """The terms of ad1 q = z q - dq/dzbar or ad2 q = zbar q - dq/dz from
    those of q, in one pass: under ad1, c z^a zbar^b adds c at (a+1, b) and
    -b c at (a, b-1); ad2 mirrors it.  The raised keys are distinct, and so
    are the differentiated ones, so each key sums at most two contributions,
    and the terms come out in the order of z q - dq/dzbar.

    ad1 and ad2 have integer coefficients, so the values may be Coeffs or
    the ints of one component of an integral polynomial."""
    out = {}
    lowered = []
    for (a, b), c in terms.items():
        if mode == 1:
            out[(a + 1, b)] = c
            if b:
                lowered.append(((a, b - 1), c * -b))
        else:
            out[(a, b + 1)] = c
            if a:
                lowered.append(((a - 1, b), c * -a))
    for key, v in lowered:
        s = out.get(key)
        s = v if s is None else s + v
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _normal_ordered(x: WeylOp, y: WeylOp, contracted_only: bool) -> dict:
    """The term map of x y rewritten to normal order.

    Per mode, a^d ad^e = sum_j j! C(d,j) C(e,j) ad^(e-j) a^(d-j): the word
    with j contractions.  With contracted_only the word with none in either
    mode, (j1, j2) = (0, 0), is left out, and so is every pair of terms that
    has no contraction at all.
    """
    out = {}
    for (c1, c2, d1, d2), cx in x.terms.items():
        for (e1, e2, f1, f2), cy in y.terms.items():
            n1, n2 = min(d1, e1), min(d2, e2)
            if contracted_only and not (n1 or n2):
                continue
            cc = cx * cy
            for j1 in range(n1 + 1):
                w1 = comb(d1, j1) * comb(e1, j1) * factorial(j1)
                for j2 in range(n2 + 1):
                    if contracted_only and j1 == j2 == 0:
                        continue
                    w2 = comb(d2, j2) * comb(e2, j2) * factorial(j2)
                    key = (c1 + e1 - j1, c2 + e2 - j2, d1 + f1 - j1, d2 + f2 - j2)
                    v = cc * (w1 * w2)
                    s = out.get(key)
                    s = v if s is None else s + v
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    """[a, b] = a b - b a from the contractions alone.

    The word of a term pair with no contraction has the same key in a b and
    in b a, and the same coefficient, since Coeff products commute: it
    cancels.  So [a, b] is the contractions of a's lowering with b's raising,
    minus those of b's lowering with a's raising.
    """
    return a._like(_normal_ordered(a, b, True)) - b._like(_normal_ordered(b, a, True))


def _qp_from_ladders(low: WeylOp, raise_: WeylOp) -> tuple[WeylOp, WeylOp]:
    """(q, p) = ((a + ad)/sqrt2, (a - ad)/(i sqrt2)) of a lowering/raising pair, on its backend."""
    half_rt2 = Coeff(0, 0, Fraction(1, 2))  # 1/sqrt2
    neg_i_half_rt2 = Coeff(0, 0, 0, Fraction(-1, 2))  # 1/(i sqrt2)
    return (low + raise_) * half_rt2, (low - raise_) * neg_i_half_rt2


def position_momentum_ops() -> dict[str, WeylOp]:
    """Canonical pairs q_i = (a_i + ad_i)/sqrt2, p_i = (a_i - ad_i)/(i sqrt2), exact."""
    ops = {}
    for mode in (1, 2):
        a, ad = WeylOp.a(mode), WeylOp.adag(mode)
        ops[f"q{mode}"], ops[f"p{mode}"] = _qp_from_ladders(a, ad)
    return ops

"""Sparse polynomials in the conjugate pair (z, zbar) and in two real variables,
together with the Gaussian-measure inner products that make the Hermite
families (bi)orthogonal.

Complex polynomials are maps {(z-degree, zbar-degree): Coeff}; the inner
product uses the monomial moment rule of the measure exp(-|z|^2) dxdy/pi,
so exact coefficients give exact inner products.  Real polynomials carry the
weight exp(-x^2) on the line, with sqrt(pi) kept symbolic.

``SparseMap`` is the map arithmetic shared by both polynomial types, the
operators of ``weyl`` and the truncated series of ``hermite``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from math import factorial

from .coeffs import ONE, ZERO, Coeff, _sum_products

__all__ = ["BiPoly", "RealPoly", "gram", "inner_product", "real_inner_product"]


class SparseMap:
    """Finite map {exponent tuple: value} whose zero values are never stored.

    The subclasses are the polynomials here, ``WeylOp`` and
    ``SeriesTruncation``.  Each one names its key slots (``KEYS``, the JSON
    field names; ``SYMBOLS``, the printed letters), validates its input and
    extends ``__mul__`` from scalars to its own product.  Everything linear
    lives here.  Equality is exact-type: maps of different subclasses never
    compare equal.
    """

    __slots__ = ("terms",)
    KEYS: tuple = ()
    SYMBOLS: tuple = ()

    def __init__(self, terms=None):
        out = {}
        if terms:
            for key, c in terms.items():
                c = self._lift(c)
                if not c:
                    continue
                key = tuple(int(e) for e in key)
                if len(key) != len(self.KEYS) or min(key) < 0:
                    raise ValueError(f"bad exponent key {key}")
                out[key] = c
        self.terms = out

    _lift = staticmethod(Coeff.lift)

    def _like(self, terms):
        """A map of this type holding terms, which are already clean."""
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def _coerce(self, other):
        """other as a map of this type; a scalar becomes the constant term."""
        if isinstance(other, type(self)):
            return other
        c = self._lift(other)
        return self._like({(0,) * len(self.KEYS): c} if c else {})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0,) * len(cls.KEYS): ONE})

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        """Scalar multiple; subclasses extend this to their own product."""
        s = self._lift(other)
        return self._like({k: c * s for k, c in self.terms.items()} if s else {})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def sorted_terms(self):
        """Terms in the canonical (total degree, key) order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "terms": [
                {**dict(zip(self.KEYS, key)), **c.to_json_value()} for key, c in self.sorted_terms()
            ]
        }

    # a map is itself a JSON-able value of a map one level up (series coefficients)
    to_json_value = to_json_dict

    @classmethod
    def from_json_dict(cls, obj):
        return cls({tuple(t[k] for k in cls.KEYS): Coeff.from_json_value(t) for t in obj["terms"]})

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for key, c in reversed(self.sorted_terms()):
            mono = " ".join(s if e == 1 else f"{s}^{e}" for s, e in zip(self.SYMBOLS, key) if e)
            chunks.append(_term_str(c, mono))
        out = chunks[0]
        for c in chunks[1:]:
            out += f" - {c[1:]}" if c.startswith("-") else f" + {c}"
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self.pretty()})"


def _convolve(p: dict, q: dict, order=math.inf) -> dict:
    """Terms of the product of two maps keyed by exponent pairs.  Pairs whose
    total degree exceeds order are skipped before their product is formed."""
    out = {}
    for (a, b), c1 in p.items():
        for (c, d), c2 in q.items():
            if a + b + c + d > order:
                continue
            key = (a + c, b + d)
            v = c1 * c2
            s = out.get(key)
            s = v if s is None else s + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


class BiPoly(SparseMap):
    """Polynomial in z and zbar with Coeff coefficients, zero terms never stored."""

    __slots__ = ()
    KEYS = ("z", "zbar")
    SYMBOLS = ("z", "z~")

    @classmethod
    def z(cls):
        return cls.monomial(1, 0)

    @classmethod
    def zbar(cls):
        return cls.monomial(0, 1)

    @classmethod
    def monomial(cls, a, b, coeff=1):
        return cls({(a, b): Coeff.lift(coeff)})

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return super().__mul__(other)
        return self._like(_convolve(self.terms, other.terms))

    __rmul__ = __mul__

    # -- calculus and structure ---------------------------------------------

    def diff(self, var: str, order: int = 1) -> BiPoly:
        """Formal partial derivative; var is 'z' or 'zbar'."""
        if var not in ("z", "zbar"):
            raise ValueError(f"unknown variable {var!r}")
        idx = 0 if var == "z" else 1
        cur = self
        for _ in range(order):
            out = {}
            for (a, b), c in cur.terms.items():
                e = (a, b)[idx]
                if e == 0:
                    continue
                key = (a - 1, b) if idx == 0 else (a, b - 1)
                out[key] = c * e
            cur = self._like(out)
        return cur

    def conjugate(self) -> BiPoly:
        """Complex conjugate: conj swaps z and zbar and conjugates coefficients."""
        return self._like({(b, a): c.conj() for (a, b), c in self.terms.items()})


class RealPoly(SparseMap):
    """Polynomial in two real variables x1, x2 with real coefficients."""

    __slots__ = ()
    KEYS = SYMBOLS = ("x1", "x2")

    def __init__(self, terms=None):
        super().__init__(terms)
        if not all(c.is_real() for c in self.terms.values()):
            raise ValueError("RealPoly coefficients must be real")

    @classmethod
    def x1(cls):
        return cls.monomial(1, 0)

    @classmethod
    def x2(cls):
        return cls.monomial(0, 1)

    @classmethod
    def monomial(cls, a, b, coeff=1):
        return cls({(a, b): Coeff.lift(coeff)})

    def __mul__(self, other):
        if not isinstance(other, RealPoly):
            return super().__mul__(other)
        return self._like(_convolve(self.terms, other.terms))

    __rmul__ = __mul__

    def variables_used(self) -> set:
        used = set()
        for a, b in self.terms:
            if a:
                used.add(0)
            if b:
                used.add(1)
        return used


def gram(ps, qs) -> list:
    """Gaussian inner products <p, q> for p in ps and q in qs, conjugate
    linear in the first slot, as one sparse row {j: <p, qs[j]>} per p.

    Monomial rule: <z^a zbar^b, z^c zbar^d> = (a+d)! when b+c == a+d, else 0.
    Only terms with matching a-b == c-d can pair, so each q's terms are
    bucketed by that difference, its sector, and each sector lists the
    columns with a term in it, once for the whole matrix.  A row holds, in
    column order, the j whose q shares a sector with p's terms; every other
    entry has no pairing term and is the exact ZERO.  An entry sums its
    pairings, p's terms in order and each against its bucket in order, in one
    ``_sum_products`` call, so it is on the polynomials' backend.
    """
    top = max((a for p in ps for a, _ in p.terms), default=0)
    top += max((d for q in qs for _, d in q.terms), default=0)
    factorials = [factorial(n) for n in range(top + 1)]  # every (a+d)!, once per call
    buckets = []
    columns = defaultdict(list)  # sector a-b: the j whose q has a term there
    for j, q in enumerate(qs):
        by_diff = defaultdict(list)
        for (c, d), qc in q.terms.items():
            by_diff[c - d].append((d, qc))
        for diff in by_diff:
            columns[diff].append(j)
        buckets.append(by_diff)
    rows = []
    for p in ps:
        terms = [(a - b, a, pc.conj()) for (a, b), pc in p.terms.items()]
        sectors = {diff for diff, _, _ in terms}
        paired = sorted({j for diff in sectors for j in columns.get(diff, ())})
        rows.append(
            {
                j: _sum_products(
                    [
                        (pconj, qc, factorials[a + d])
                        for diff, a, pconj in terms
                        for d, qc in buckets[j].get(diff, ())
                    ]
                )
                for j in paired
            }
        )
    return rows


def inner_product(p: BiPoly, q: BiPoly) -> Coeff:
    """Gaussian inner product <p, q>: the one entry of gram([p], [q])."""
    return gram([p], [q])[0].get(0, ZERO)


def gaussian_moment(n: int) -> Fraction:
    """Rational part of the line integral of x^n exp(-x^2); the sqrt(pi) is implicit."""
    if n % 2:
        return Fraction(0)
    k = n // 2
    return Fraction(factorial(2 * k), 4**k * factorial(k))


def real_inner_product(p: RealPoly, q: RealPoly) -> Coeff:
    """The coefficient c of the weighted line integral of p*q against
    exp(-x^2), which is c * sqrt(pi).

    Both polynomials must be univariate in the same variable.
    """
    used = p.variables_used() | q.variables_used()
    if len(used) > 1:
        raise ValueError("real_inner_product needs univariate inputs in a common variable")
    acc = None
    for (a1, a2), pc in p.terms.items():
        for (b1, b2), qc in q.terms.items():
            m = gaussian_moment((a1 + b1) + (a2 + b2))
            if m:
                v = pc * qc * m
                acc = v if acc is None else acc + v
    return ZERO if acc is None else acc


def _term_str(c, mono: str) -> str:
    ctxt = str(c)
    if not mono:
        return ctxt
    if ctxt == "1":
        return mono
    if ctxt == "-1":
        return f"-{mono}"
    if ("+" in ctxt[1:]) or ("-" in ctxt[1:]) or "sqrt2" in ctxt:
        ctxt = f"({ctxt})"
    return f"{ctxt} {mono}"

"""Exact complex scalars, with a float fallback, for the whole library.

An exact coefficient is an element of the field Q(i, sqrt2), stored as four
integer numerators over one shared denominator,

    value = (a + b*i + (c + d*i) * sqrt2) / q,   q >= 1,  gcd(a, b, c, d, q) = 1,

the layout of FLINT's ``fmpq_poly`` and Antic's ``nf_elem``.  Every result is
reduced with one gcd, so a value has one form (zero is 0/1) and exact ``==``
compares five ints.  Working in this field keeps every quantity in the
library closed under arithmetic: the sqrt2 slots exist because the
position/momentum combinations of ladder operators carry 1/sqrt2 factors, and
with them every orthogonality or commutator check reduces to literal
equality of integers.

The float backend uses the same slots: a and b hold the real and imaginary
parts with the radical folded in, c = d = 0.0 and q = 1.  A sum over equal
denominators and a product (q * q = 1) then run the same code on both
backends; only the reduction, which a denominator of 1 skips, is exact-only.
It is used for numerical cross-checks and for parameter points whose
square roots are irrational.  Every value carries its backend, and an
operation on both backends runs in float.

``re``, ``im``, ``re2`` and ``im2`` are read-only views of the four
components, ``Fraction(a, q)`` and so on for an exact value and the float
slots otherwise; hashing, formatting and JSON go through them.  ``to_float``
divides each numerator by q, which rounds like ``float(Fraction)``.

Both backends take the same short paths, which give the values of the
general formula.  A product has two formulas: the Gaussian one,
(a1 a2 - b1 b2, a1 b2 + b1 a2), when all four radical slots are zero, as in
every float product, and the full Q(i, sqrt2) one otherwise; the full one
alone ran 1.08-1.19x slower.  With int slots, skipping the products of zero
parts or halves costs more than it saves.  Each other short path measured
faster on an A/B of two copies of the package (CPython 3.11, 2-vCPU VM);
the factor is the slowdown without it.  A plain int or Fraction factor
scales the numerators and q without being lifted to a Coeff (1.9-2.1x
exact, 3.3x float); a sum over equal denominators skips the cross-multiply
(1.22-1.30x); a difference on one backend subtracts the numerators where
it added the negation (1.65-2.0x exact, 2.0x float); the inverse of a Q(i)
value skips the radical norm (1.8x); an all-int constructor skips Fraction
(about 5x).  Only the sign of a float zero depends on the path, so the
float views ``re`` to ``im2`` return zeros unsigned.

``==`` compares the components as Python compares numbers, with no
conversion: an exact value equals a float only when they are the same
number, and a value with a radical part equals no float.  So ``==`` is
transitive, and equal Coeffs, ints, Fractions, floats and complex numbers
hash alike.  ``close`` compares across backends.
"""

from __future__ import annotations

import math
import re as _regex
import sys
from fractions import Fraction
from math import gcd as _gcd

__all__ = ["Coeff", "FLOAT_TOL", "close", "rational_sqrt", "parse_coeff"]

_SQRT2 = math.sqrt(2.0)

# residual tolerance for float-backend identity checks
FLOAT_TOL = 1e-10


def backend_tol(exact: bool) -> float:
    """Pivot and residual threshold of a backend: 0.0 (literal zero) when
    exact, FLOAT_TOL on float.  close() reads the backend off the values."""
    return 0.0 if exact else FLOAT_TOL


def rational_sqrt(value) -> Fraction | None:
    """Square root of a nonnegative rational if it is again rational, else None."""
    value = Fraction(value)
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


_HASH_MOD = 1 << sys.hash_info.width
_new = object.__new__


def _make(a, b, c, d, q, exact) -> Coeff:
    """The Coeff (a + b i + (c + d i) sqrt2)/q, reduced to lowest terms.
    A float value has q = 1, which needs no reduction."""
    if q != 1:
        g = _gcd(a, b, c, d, q)
        if g != 1:
            a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
    out = _new(Coeff)
    out.a = a
    out.b = b
    out.c = c
    out.d = d
    out.q = q
    out.exact = exact
    return out


def _component(slot: str, doc: str) -> property:
    def view(self):
        x = getattr(self, slot)
        # + 0.0 writes a float zero unsigned, whichever product formed it
        return Fraction(x, self.q) if self.exact else x + 0.0

    return property(view, doc=doc)


class Coeff:
    """Complex scalar (a + b*i + (c + d*i)*sqrt2)/q with an exact/float tag."""

    __slots__ = ("a", "b", "c", "d", "q", "exact")

    re = _component("a", "Real rational part: a/q, a Fraction when exact.")
    im = _component("b", "Imaginary rational part: b/q.")
    re2 = _component("c", "Real coefficient of sqrt2: c/q (0.0 on float).")
    im2 = _component("d", "Imaginary coefficient of sqrt2: d/q (0.0 on float).")

    def __init__(self, re=0, im=0, re2=0, im2=0, exact=True):
        if type(re) is type(im) is type(re2) is type(im2) is int and exact:
            self.a, self.b, self.c, self.d = re, im, re2, im2
            q = 1
        elif exact:
            parts = [
                x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (re, im, re2, im2)
            ]
            # over the lcm of the reduced denominators the slots are coprime
            q = math.lcm(*[x.denominator for x in parts])
            self.a, self.b, self.c, self.d = [x.numerator * (q // x.denominator) for x in parts]
        else:
            # the float backend folds the radical into a and b
            self.a = float(re) + _SQRT2 * float(re2)
            self.b = float(im) + _SQRT2 * float(im2)
            self.c = self.d = 0.0
            q = 1
        self.q = q
        self.exact = exact

    @classmethod
    def from_complex(cls, z) -> Coeff:
        z = complex(z)
        return _make(z.real, z.imag, 0.0, 0.0, 1, False)

    @classmethod
    def lift(cls, value) -> Coeff:
        """Coerce ints/Fractions (exact) or floats/complex (float backend) to Coeff."""
        if isinstance(value, Coeff):
            return value
        if isinstance(value, (int, Fraction)):
            return _make(value.numerator, 0, 0, 0, value.denominator, True)
        if isinstance(value, (float, complex)):
            return cls.from_complex(value)
        raise TypeError(f"cannot interpret {value!r} as a coefficient")

    def _floats(self) -> tuple:
        """(real, imaginary) parts as floats, each numerator divided by q."""
        q = self.q
        return self.a / q + _SQRT2 * (self.c / q), self.b / q + _SQRT2 * (self.d / q)

    def to_float(self) -> Coeff:
        if not self.exact:
            return self
        return _make(*self._floats(), 0.0, 0.0, 1, False)

    def to_complex(self) -> complex:
        if self.exact:
            return complex(*self._floats())
        return complex(self.a, self.b)

    def _pair(self, other):
        """self and other on one backend, float when either is float; raises
        TypeError when other is no scalar."""
        other = Coeff.lift(other)
        if self.exact == other.exact:
            return self, other
        return self.to_float(), other.to_float()

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Coeff or other.exact != self.exact:
            try:
                self, other = self._pair(other)
            except TypeError:
                return NotImplemented
        q1, q2 = self.q, other.q
        if q1 == q2:
            return _make(
                self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d, q1, self.exact
            )
        # cross-multiply over the lcm of the denominators
        g = _gcd(q1, q2)
        s1, s2 = q2 // g, q1 // g
        return _make(
            self.a * s1 + other.a * s2,
            self.b * s1 + other.b * s2,
            self.c * s1 + other.c * s2,
            self.d * s1 + other.d * s2,
            q1 * s1,
            self.exact,
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, -self.c, -self.d, self.q, self.exact)

    def __sub__(self, other):
        # on one backend, the code of __add__ with other's signs flipped: the
        # slots of self + -other, with one _make where that takes two.  An
        # exact zero slot that meets a float turns into +0.0 after negation,
        # so the sign of a float zero keeps that route
        if type(other) is not Coeff or other.exact != self.exact:
            try:
                return self + -Coeff.lift(other)
            except TypeError:
                return NotImplemented
        q1, q2 = self.q, other.q
        if q1 == q2:
            return _make(
                self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d, q1, self.exact
            )
        # cross-multiply over the lcm of the denominators
        g = _gcd(q1, q2)
        s1, s2 = q2 // g, q1 // g
        return _make(
            self.a * s1 - other.a * s2,
            self.b * s1 - other.b * s2,
            self.c * s1 - other.c * s2,
            self.d * s1 - other.d * s2,
            q1 * s1,
            self.exact,
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Coeff:
            if isinstance(other, int) or (isinstance(other, Fraction) and self.exact):
                # rational scaling, no lift: n/m scales the numerators by n
                # and q by m
                n, m = other.numerator, other.denominator
                return _make(
                    self.a * n, self.b * n, self.c * n, self.d * n, self.q * m, self.exact
                )
            try:
                self, other = self._pair(other)
            except TypeError:
                return NotImplemented
        elif other.exact != self.exact:
            self, other = self._pair(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        q = self.q * other.q
        # float radical slots are zeros, so a float product is a Q(i) product
        if not (c1 or d1 or c2 or d2):
            return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, c1, d1, q, self.exact)
        # (x1 + y1 r)(x2 + y2 r) = x1 x2 + 2 y1 y2 + (x1 y2 + y1 x2) r, r = sqrt2
        return _make(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            q,
            self.exact,
        )

    __rmul__ = __mul__

    def inverse(self) -> Coeff:
        if not self:
            raise ZeroDivisionError("inverse of zero coefficient")
        if not self.exact:
            z = 1.0 / complex(self.a, self.b)
            return _make(z.real, z.imag, 0.0, 0.0, 1, False)
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        if not (c or d):
            # q/(a + b i) = q (a - b i)/(a^2 + b^2)
            return _make(q * a, -q * b, 0, 0, a * a + b * b, True)
        # q/(A + C r) = q (A - C r) conj(D)/|D|^2 with D = A^2 - 2 C^2, a
        # Gaussian integer that vanishes only for A = C = 0 since sqrt2 is
        # not in Q(i)
        dre = a * a - b * b - 2 * (c * c - d * d)
        dim = 2 * (a * b - 2 * c * d)
        return _make(
            q * (a * dre + b * dim),
            q * (b * dre - a * dim),
            -q * (c * dre + d * dim),
            -q * (d * dre - c * dim),
            dre * dre + dim * dim,
            True,
        )

    def __truediv__(self, other):
        return self * Coeff.lift(other).inverse()

    def __rtruediv__(self, other):
        return Coeff.lift(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE if self.exact else Coeff.from_complex(1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -------------------------------------------------------

    def conj(self) -> Coeff:
        return _make(self.a, -self.b, self.c, -self.d, self.q, self.exact)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def __eq__(self, other) -> bool:
        try:
            b = Coeff.lift(other)
        except TypeError:
            return NotImplemented
        if self.exact == b.exact:
            # one reduced form per exact value; a float value has q = 1
            return self.a == b.a and self.b == b.b and self.c == b.c and self.d == b.d and self.q == b.q
        return self.re == b.re and self.im == b.im and self.re2 == b.re2 and self.im2 == b.im2

    def __hash__(self):
        # a value with a radical part equals only the Coeff with the same
        # exact slots; any other value hashes as the equal complex number
        if self.c or self.d:
            return hash((self.re, self.im, self.re2, self.im2))
        if not self.b:
            return hash(self.re)
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % _HASH_MOD
        h -= _HASH_MOD if h >= _HASH_MOD // 2 else 0
        return -2 if h == -1 else h

    def is_real(self) -> bool:
        return not self.b and not self.d

    def is_rational(self) -> bool:
        """True when the value has no imaginary and no radical component."""
        return not self.b and not self.d and not self.c

    def real_sign(self) -> int:
        """Exact sign of a real value (a + c*sqrt2)/q without evaluating the
        radical; q > 0, and c = 0.0 on float."""
        if not self.is_real():
            raise ValueError("real_sign of a non-real coefficient")
        a, c = self.a, self.c
        if a == 0 and c == 0:
            return 0
        if a >= 0 and c >= 0:
            return 1
        if a <= 0 and c <= 0:
            return -1
        # opposite signs: compare a^2 with 2 c^2
        if a * a > 2 * c * c:
            return 1 if a > 0 else -1
        return 1 if c > 0 else -1

    # -- formatting / serialization --------------------------------------

    def __repr__(self):
        return f"Coeff({self})"

    def __str__(self):
        if not self:
            return "0"
        if not self.exact:
            if self.im == 0:
                return repr(self.re)
            if self.re == 0:
                return f"{self.im!r}i"
            sign = "+" if self.im >= 0 else "-"
            return f"{self.re!r}{sign}{abs(self.im)!r}i"
        parts = []
        plain = _complex_str(self.re, self.im)
        if plain:
            parts.append(plain)
        rad = _complex_str(self.re2, self.im2)
        if rad:
            if ("+" in rad[1:]) or ("-" in rad[1:]):
                rad = f"({rad})"
            parts.append(f"{rad}*sqrt2")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def to_json_value(self):
        if not self.exact:
            return {"re": self.re, "im": self.im}
        out = {"re": str(self.re), "im": str(self.im)}
        if self.re2:
            out["re2"] = str(self.re2)
        if self.im2:
            out["im2"] = str(self.im2)
        return out

    @classmethod
    def from_json_value(cls, obj) -> Coeff:
        if isinstance(obj.get("re"), str):
            return cls(
                Fraction(obj["re"]),
                Fraction(obj.get("im", 0)),
                Fraction(obj.get("re2", 0)),
                Fraction(obj.get("im2", 0)),
            )
        return cls(obj["re"], obj.get("im", 0.0), exact=False)


def _sum_products(triples) -> Coeff:
    """The sum of x * y * w over a list of (x, y, w) triples of Coeffs x, y
    and ints w: the value of the chain acc = acc + x * y * w started from the
    first product, and the exact zero when the list is empty.

    When every x and y is exact, the products' numerators are summed as ints
    over a running common denominator and reduced once, at the end.  Any
    other input runs the chain itself, so a float sum keeps the chain's bits
    and mixed backends go to float.
    """
    sa = sb = sc = sd = 0
    sq = 1
    for x, y, w in triples:
        if not (x.exact and y.exact):
            break
        a1, b1, c1, d1 = x.a, x.b, x.c, x.d
        a2, b2, c2, d2 = y.a, y.b, y.c, y.d
        q = x.q * y.q
        if q != sq:
            s, r = divmod(sq, q)
            if r:
                # rescale the sum to the lcm of the two denominators
                r = q // _gcd(sq, q)
                sa, sb, sc, sd, sq = sa * r, sb * r, sc * r, sd * r, sq * r
                s = sq // q
            w *= s
        if c1 or d1 or c2 or d2:
            sa += (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)) * w
            sb += (a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)) * w
            sc += (a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2) * w
            sd += (a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2) * w
        else:
            sa += (a1 * a2 - b1 * b2) * w
            sb += (a1 * b2 + b1 * a2) * w
    else:
        return _make(sa, sb, sc, sd, sq, True)
    # a float times the int 1 keeps its bits, so skipping that product
    # changes no result
    (x, y, w), *rest = triples
    acc = x * y if w == 1 else x * y * w
    for x, y, w in rest:
        acc = acc + (x * y if w == 1 else x * y * w)
    return acc


def _complex_str(re: Fraction, im: Fraction) -> str:
    if re == 0 and im == 0:
        return ""
    if im == 0:
        return str(re)
    if im == 1:
        imtxt = "i"
    elif im == -1:
        imtxt = "-i"
    else:
        imtxt = f"{im}i"
    if re == 0:
        return imtxt
    return f"{re}{imtxt}" if imtxt.startswith("-") else f"{re}+{imtxt}"


# a sign starts a token unless it follows the e/E of an exponent
_TOKEN = _regex.compile(r"[+-]?(?:[eE][+-]?|[^+-])+")


def parse_coeff(text: str, exact: bool = True) -> Coeff:
    """Parse 'p/q', 'p/q i', 'a+bi' style strings (decimals and exponents
    allowed in float mode)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coefficient")
    re_part = im_part = Fraction(0) if exact else 0.0
    for tok in _TOKEN.findall(s):
        imag = tok.endswith(("i", "j", "I"))
        if imag:
            tok = tok[:-1]
            if tok in ("", "+"):
                tok = "1"
            elif tok == "-":
                tok = "-1"
        # Fraction() would accept decimal strings losslessly, but exact
        # mode deliberately takes p/q tokens only
        if exact and ("." in tok or "e" in tok.lower()):
            raise ValueError(
                f"{text!r}: {tok!r} is not a p/q rational; "
                "use --backend float for decimal input"
            )
        try:
            val = Fraction(tok)
        except (ValueError, ZeroDivisionError) as exc:
            what = (
                "an exact rational; use --backend float for decimal input"
                if exact
                else "a finite number"
            )
            raise ValueError(f"{text!r}: {tok!r} is not {what}") from exc
        if not exact:
            # float(Fraction(t)) rounds a decimal literal exactly as float(t)
            try:
                val = float(val)
            except OverflowError:
                raise ValueError(f"{text!r}: {tok!r} is beyond float range") from None
        if imag:
            im_part += val
        else:
            re_part += val
    if math.inf in (abs(re_part), abs(im_part)):  # finite float tokens whose sum overflows
        raise ValueError(f"{text!r} is beyond float range")
    return Coeff(re_part, im_part, exact=exact)


def close(a, b) -> bool:
    """Whether a and b agree entry by entry, the one comparison across
    backends.  Two exact entries must be equal; where either entry is a float,
    |x - y| <= FLOAT_TOL * max(1, |x|, |y|).

    a and b are scalars, sparse maps (objects with a ``terms`` dict, compared
    over the union of their keys with a missing key reading as the exact
    ZERO, and never equal across types) or equal-shape nested lists of either.
    """
    if a == b:
        return True
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return False
        return all(close(x, y) for x, y in zip(a, b))
    if hasattr(a, "terms"):
        if type(a) is not type(b):
            return False
        keys = a.terms.keys() | b.terms.keys()
        return all(close(a.terms.get(k, ZERO), b.terms.get(k, ZERO)) for k in keys)
    a, b = Coeff.lift(a), Coeff.lift(b)
    if a.exact and b.exact:
        return False
    try:
        return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))
    except OverflowError:  # an exact value beyond float range is close to no float
        return False


ZERO = Coeff(0)
ONE = Coeff(1)
I = Coeff(0, 1)
SQRT2 = Coeff(0, 0, 1)

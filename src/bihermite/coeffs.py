"""Exact complex scalars, with a float fallback, for the whole library.

An exact coefficient is an element of the field Q(i, sqrt2),

    value = (re + im*i) + (re2 + im2*i) * sqrt(2),

stored as four :class:`fractions.Fraction` components.  Working in this field
keeps every quantity in the library closed under arithmetic: the sqrt2 slots
exist because the position/momentum combinations of ladder operators carry
1/sqrt2 factors, and with them every orthogonality or commutator check
reduces to literal equality of rationals.

The float backend stores the same value with the radical folded into re/im.
It is used for numerical cross-checks (eigenvalues, quadrature) and for
parameter points whose square roots are irrational.  Every value carries its
backend, and an operation on both backends runs in float.

Both backends take the same short paths, which give the values of the
general formula.  A product is formed from its Q(i) halves,
(x1 + y1 sqrt2)(x2 + y2 sqrt2), and a zero half, or a zero real or imaginary
part, costs no product: Q(i) x Q(i) takes at most four products instead of
sixteen.  A plain int or Fraction factor scales the slots without being
lifted to a Coeff, and a sum skips its zero terms.  Only the sign of a float
zero depends on the path, so JSON writes float zeros unsigned.

``==`` compares the slots as Python compares numbers, with no conversion: an
exact value equals a float only when they are the same number, and a value
with a radical part equals no float.  So ``==`` is transitive, and equal
Coeffs, ints, Fractions, floats and complex numbers hash alike.  ``close``
compares across backends.
"""

from __future__ import annotations

import math
import re as _regex
import sys
from fractions import Fraction

__all__ = [
    "Coeff",
    "FLOAT_TOL",
    "backend_tol",
    "close",
    "rational_sqrt",
    "parse_coeff",
    "ZERO",
    "ONE",
    "I",
    "SQRT2",
]

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


_ZERO_Q = Fraction(0)
_HASH_MOD = 1 << sys.hash_info.width


def _add(x, y):
    """x + y, skipping the sum when either term is zero."""
    if not x:
        return y
    if not y:
        return x
    return x + y


def _scale(x, n):
    return x * n if x else x


def _qi_mul(xr, xi, yr, yi, zero) -> tuple:
    """(xr + xi i)(yr + yi i) as a (re, im) pair, with no product for a zero
    real or imaginary part; zero is the zero of the operands' backend."""
    if not xi:
        if not yi:
            return xr * yr, zero
        return _scale(yr, xr), xr * yi
    if not xr:
        if not yi:
            return zero, xi * yr
        return -(xi * yi), _scale(yr, xi)
    if not yi:
        return xr * yr, xi * yr
    if not yr:
        return -(xi * yi), xr * yi
    return xr * yr - xi * yi, xr * yi + xi * yr


class Coeff:
    """Complex scalar (re + im*i) + (re2 + im2*i)*sqrt2 with an exact/float tag."""

    __slots__ = ("re", "im", "re2", "im2", "exact")

    def __init__(self, re=0, im=0, re2=0, im2=0, exact=True):
        if exact:
            self.re = Fraction(re)
            self.im = Fraction(im)
            self.re2 = Fraction(re2)
            self.im2 = Fraction(im2)
        else:
            # the float backend folds the radical into re/im
            self.re = float(re) + _SQRT2 * float(re2)
            self.im = float(im) + _SQRT2 * float(im2)
            self.re2 = 0.0
            self.im2 = 0.0
        self.exact = exact

    @classmethod
    def _raw(cls, re, im, re2, im2, exact):
        c = object.__new__(cls)
        c.re = re
        c.im = im
        c.re2 = re2
        c.im2 = im2
        c.exact = exact
        return c

    @classmethod
    def from_complex(cls, z) -> Coeff:
        z = complex(z)
        return cls._raw(z.real, z.imag, 0.0, 0.0, False)

    @classmethod
    def lift(cls, value) -> Coeff:
        """Coerce ints/Fractions (exact) or floats/complex (float backend) to Coeff."""
        if isinstance(value, Coeff):
            return value
        if isinstance(value, (int, Fraction)):
            return cls._raw(Fraction(value), Fraction(0), Fraction(0), Fraction(0), True)
        if isinstance(value, (float, complex)):
            return cls.from_complex(value)
        raise TypeError(f"cannot interpret {value!r} as a coefficient")

    def to_float(self) -> Coeff:
        if not self.exact:
            return self
        return Coeff._raw(
            float(self.re) + _SQRT2 * float(self.re2),
            float(self.im) + _SQRT2 * float(self.im2),
            0.0,
            0.0,
            False,
        )

    def to_complex(self) -> complex:
        if self.exact:
            return complex(
                float(self.re) + _SQRT2 * float(self.re2),
                float(self.im) + _SQRT2 * float(self.im2),
            )
        return complex(self.re, self.im)

    def _pair(self, other):
        other = Coeff.lift(other)
        if self.exact == other.exact:
            return self, other
        return self.to_float(), other.to_float()

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return Coeff._raw(
            _add(a.re, b.re), _add(a.im, b.im), _add(a.re2, b.re2), _add(a.im2, b.im2), a.exact
        )

    __radd__ = __add__

    def __neg__(self):
        return Coeff._raw(-self.re, -self.im, -self.re2, -self.im2, self.exact)

    def __sub__(self, other):
        return self + (-Coeff.lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # rational scaling: one product per nonzero slot, no lift
            return Coeff._raw(
                _scale(self.re, other),
                _scale(self.im, other),
                _scale(self.re2, other),
                _scale(self.im2, other),
                self.exact,
            )
        a, b = self._pair(other)
        zero = _ZERO_Q if a.exact else 0.0
        # (x1 + y1 r)(x2 + y2 r) = (x1 x2 + 2 y1 y2) + (x1 y2 + y1 x2) r with
        # r = sqrt2 and x, y in Q(i); zero halves cost nothing.  Float radical
        # slots are zeros, so a float product is one Q(i) product.
        y1, y2 = a.re2 or a.im2, b.re2 or b.im2
        if not (y1 or y2):
            re, im = _qi_mul(a.re, a.im, b.re, b.im, zero)
            return Coeff._raw(re, im, zero, zero, a.exact)
        x1, x2 = a.re or a.im, b.re or b.im
        if not (x1 and x2 and y1 and y2):
            re = im = re2 = im2 = zero
            if x1 and x2:
                re, im = _qi_mul(a.re, a.im, b.re, b.im, zero)
            elif y1 and y2:
                u, v = _qi_mul(a.re2, a.im2, b.re2, b.im2, zero)
                re, im = 2 * u, 2 * v
            if x1 and y2:
                re2, im2 = _qi_mul(a.re, a.im, b.re2, b.im2, zero)
            elif y1 and x2:
                re2, im2 = _qi_mul(a.re2, a.im2, b.re, b.im, zero)
            return Coeff._raw(re, im, re2, im2, a.exact)
        return Coeff._raw(
            a.re * b.re - a.im * b.im + 2 * (a.re2 * b.re2 - a.im2 * b.im2),
            a.re * b.im + a.im * b.re + 2 * (a.re2 * b.im2 + a.im2 * b.re2),
            a.re * b.re2 - a.im * b.im2 + a.re2 * b.re - a.im2 * b.im,
            a.re * b.im2 + a.im * b.re2 + a.re2 * b.im + a.im2 * b.re,
            a.exact,
        )

    __rmul__ = __mul__

    def inverse(self) -> Coeff:
        if not self:
            raise ZeroDivisionError("inverse of zero coefficient")
        if not self.exact:
            z = 1.0 / complex(self.re, self.im)
            return Coeff._raw(z.real, z.imag, 0.0, 0.0, False)
        # 1/(x + y r) = (x - y r)/(x^2 - 2 y^2); the denominator is in Q(i)
        # and vanishes only for x = y = 0 since sqrt2 is not in Q(i).
        dre = self.re * self.re - self.im * self.im - 2 * (self.re2 * self.re2 - self.im2 * self.im2)
        dim = 2 * self.re * self.im - 4 * self.re2 * self.im2
        n = dre * dre + dim * dim

        def cdiv(u, v):
            return (u * dre + v * dim) / n, (v * dre - u * dim) / n

        re, im = cdiv(self.re, self.im)
        re2, im2 = cdiv(-self.re2, -self.im2)
        return Coeff._raw(re, im, re2, im2, True)

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
        return Coeff._raw(self.re, -self.im, self.re2, -self.im2, self.exact)

    def abs2(self) -> Coeff:
        return self * self.conj()

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __bool__(self) -> bool:
        return bool(self.re or self.im or self.re2 or self.im2)

    def __eq__(self, other) -> bool:
        try:
            b = Coeff.lift(other)
        except TypeError:
            return NotImplemented
        return self.re == b.re and self.im == b.im and self.re2 == b.re2 and self.im2 == b.im2

    def __hash__(self):
        # a value with a radical part equals only the Coeff with the same
        # exact slots; any other value hashes as the equal complex number
        if self.re2 or self.im2:
            return hash((self.re, self.im, self.re2, self.im2))
        if not self.im:
            return hash(self.re)
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % _HASH_MOD
        h -= _HASH_MOD if h >= _HASH_MOD // 2 else 0
        return -2 if h == -1 else h

    def is_real(self) -> bool:
        return not self.im and not self.im2

    def is_rational(self) -> bool:
        """True when the value has no imaginary and no radical component."""
        return not self.im and not self.im2 and not self.re2

    def real_sign(self) -> int:
        """Exact sign of a real value a + b*sqrt2 without evaluating the radical."""
        if not self.is_real():
            raise ValueError("real_sign of a non-real coefficient")
        if not self.exact:
            return (self.re > 0) - (self.re < 0)
        a, b = self.re, self.re2
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        if a * a > 2 * b * b:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

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
            # + 0.0 writes a zero unsigned, whichever path formed it
            return {"re": self.re + 0.0, "im": self.im + 0.0}
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


_TOKEN = _regex.compile(r"[+-]?[^+-]+")


def parse_coeff(text: str, exact: bool = True) -> Coeff:
    """Parse 'p/q', 'p/q i', 'a+bi' style strings (decimals allowed in float mode)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coefficient")
    re_part, im_part = Fraction(0), Fraction(0)
    re_f, im_f = 0.0, 0.0
    for tok in _TOKEN.findall(s):
        imag = tok.endswith(("i", "j", "I"))
        if imag:
            tok = tok[:-1]
            if tok in ("", "+"):
                tok = "1"
            elif tok == "-":
                tok = "-1"
        if exact:
            # Fraction() would accept decimal strings losslessly, but exact
            # mode deliberately takes p/q tokens only
            if "." in tok or "e" in tok.lower():
                raise ValueError(
                    f"{text!r}: {tok!r} is not a p/q rational; "
                    "use --backend float for decimal input"
                )
            try:
                val = Fraction(tok)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(
                    f"{text!r}: {tok!r} is not an exact rational; "
                    "use --backend float for decimal input"
                ) from exc
            if imag:
                im_part += val
            else:
                re_part += val
        else:
            val = float(Fraction(tok)) if "/" in tok else float(tok)
            if imag:
                im_f += val
            else:
                re_f += val
    if exact:
        return Coeff(re_part, im_part)
    return Coeff(re_f, im_f, exact=False)


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

"""Independent re-derivation of library results with sympy.

Shares no code with ``bihermite``:

* ``rep_matrix_entries`` expands (g11 s + g21 t)^k (g12 s + g22 t)^(L-k) as a
  sympy polynomial over the Gaussian rationals and reads column k of M(g, L)
  off its coefficients of s^r t^(L-r);
* ``hermite_terms`` builds H[m,n] by differentiating the Gaussian,
  H[m,n] = (-1)^(m+n) exp(z zbar) d^m/dzbar^m d^n/dz^n exp(-z zbar),
  with z and zbar as independent symbols.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from sympy.polys.domains import QQ_I

_S, _T = sympy.symbols("s t")
_Z, _ZB = sympy.symbols("z zb")


def parse_complex(text: str):
    """'p/q+r/si' -> sympy Gaussian rational."""
    body = text.strip()
    if not body.endswith("i"):
        raise ValueError(f"not a complex literal: {text!r}")
    split = max(body.rfind("+"), body.rfind("-", 1))
    return sympy.Rational(body[:split]) + sympy.I * sympy.Rational(body[split:-1])


def _fraction(x) -> Fraction:
    return Fraction(str(x))


def rep_matrix_entries(g_text: list[str], L: int) -> list[list[tuple[Fraction, Fraction]]]:
    g11, g12, g21, g22 = (parse_complex(t) for t in g_text)
    a = sympy.Poly(g11 * _S + g21 * _T, _S, _T, domain=QQ_I)
    b = sympy.Poly(g12 * _S + g22 * _T, _S, _T, domain=QQ_I)
    rows = [[None] * (L + 1) for _ in range(L + 1)]
    for k in range(L + 1):
        col = a**k * b ** (L - k)
        for r in range(L + 1):
            re, im = col.coeff_monomial(_S**r * _T ** (L - r)).as_real_imag()
            rows[r][k] = (_fraction(re), _fraction(im))
    return rows


def hermite_terms(m: int, n: int) -> dict[tuple[int, int], Fraction]:
    gauss = sympy.exp(-_Z * _ZB)
    d = sympy.diff(gauss, _ZB, m, _Z, n) if m or n else gauss
    poly = sympy.Poly(sympy.expand((-1) ** (m + n) * sympy.exp(_Z * _ZB) * d), _Z, _ZB)
    return {mono: _fraction(c) for mono, c in poly.terms()}

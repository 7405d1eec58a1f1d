"""Classical Hermite families, built by every route the library verifies.

The central objects are the two-index polynomials H[m,n](z, zbar) with integer
coefficients; the orthonormal family is h[m,n] = H[m,n]/sqrt(m! n!).  All
internal computation stays on the integer-coefficient H so the exact backend
never needs irrational normalizers; the factor m!*n! is reported alongside.

Three independent constructions are provided and must agree exactly:

* an explicit finite sum with binomial coefficients,
* a Rodrigues-style recurrence from differentiating P*exp(-z zbar),
* repeated application of the raising operators to the constant 1.

Truncated power series in bookkeeping variables (u, ubar) tie the families to
their generating functions with exact coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .coeffs import ZERO, Coeff
from .poly import BiPoly, RealPoly, SparseMap, _convolve, gram, real_inner_product
from .report import Report, Tally
from .weyl import WeylOp

__all__ = [
    "hermite_sum",
    "hermite_rodrigues",
    "hermite_operator",
    "normalizer_sq",
    "real_hermite",
    "SeriesTruncation",
    "generating_series_complex",
    "generating_series_real",
    "orthonormality_check",
    "real_orthogonality_check",
]


def normalizer_sq(m: int, n: int) -> int:
    """Squared normalizer m!*n!; h[m,n] = H[m,n] / sqrt(m! n!)."""
    return factorial(m) * factorial(n)


def _check_indices(m: int, n: int):
    """Reject a negative index, which no route of H[m,n] or Hg[m,n] defines."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")


def hermite_sum(m: int, n: int) -> BiPoly:
    """H[m,n] from the explicit sum: sum_j (-1)^j j! C(m,j) C(n,j) z^(m-j) zbar^(n-j)."""
    _check_indices(m, n)
    terms = {}
    for j in range(min(m, n) + 1):
        terms[(m - j, n - j)] = Coeff((-1) ** j * comb(m, j) * comb(n, j) * factorial(j))
    return BiPoly(terms)


def hermite_rodrigues(m: int, n: int) -> BiPoly:
    """H[m,n] by differentiating the Gaussian factor symbolically.

    Conjugating d/dz by exp(-z zbar) sends P to dP/dz - zbar*P (and mirrored
    for zbar).  The variable roles are assigned so that the result matches
    hermite_sum, i.e. m zbar-derivative steps and n z-derivative steps; the
    opposite assignment would produce H[n,m].
    """
    _check_indices(m, n)
    z, zbar = BiPoly.z(), BiPoly.zbar()
    p = BiPoly.one()
    for _ in range(m):
        p = p.diff("zbar") - z * p
    for _ in range(n):
        p = p.diff("z") - zbar * p
    return p * ((-1) ** (m + n))


def hermite_operator(m: int, n: int) -> BiPoly:
    """H[m,n] as (ad1)^m (ad2)^n applied to the constant polynomial 1."""
    _check_indices(m, n)
    op = WeylOp.adag(1) ** m * WeylOp.adag(2) ** n
    return op.apply(BiPoly.one())


def real_hermite(n: int, var: int = 0) -> RealPoly:
    """Physicists' Hermite polynomial H_n by the three-term recurrence, in x1 or x2."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    x = RealPoly.x1() if var == 0 else RealPoly.x2()
    prev, cur = RealPoly.one(), 2 * x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, 2 * x * cur - (2 * k) * prev
    return cur


class SeriesTruncation(SparseMap):
    """Power series in (u, ubar) up to a total order, coefficients in any ring
    supporting +, * and scalar multiplication (BiPoly, RealPoly, Coeff)."""

    __slots__ = ("order", "ring_one")
    KEYS = SYMBOLS = ("u", "ubar")

    def __init__(self, order: int, terms=None, ring_one=None):
        if order < 0:
            raise ValueError(f"series order must be nonnegative, got {order}")
        self.order = order
        self.ring_one = BiPoly.one() if ring_one is None else ring_one
        terms = terms or {}
        super().__init__({jk: v for jk, v in terms.items() if jk[0] + jk[1] <= order})

    @staticmethod
    def _lift(value):
        # coefficients are ring elements, stored as given
        return value

    def _like(self, terms):
        out = super()._like(terms)
        out.order, out.ring_one = self.order, self.ring_one
        return out

    def coeff(self, j: int, k: int):
        val = self.terms.get((j, k))
        if val is None:
            return self.ring_one * 0
        return val

    def __mul__(self, other):
        if not isinstance(other, SeriesTruncation):
            return super().__mul__(other)
        return self._like(_convolve(self.terms, other.terms, self.order))

    __rmul__ = __mul__

    def exp(self) -> SeriesTruncation:
        """Exact exponential; the argument must have no constant term."""
        if (0, 0) in self.terms:
            raise ValueError("exp needs a series with zero constant term")
        out = SeriesTruncation(self.order, {(0, 0): self.ring_one}, self.ring_one)
        power = out
        for j in range(1, self.order + 1):
            power = power * self
            out = out + power * Fraction(1, factorial(j))
        return out

    def substitute_linear(self, a11, a12, a21, a22) -> SeriesTruncation:
        """Replace u -> a11 u + a12 ubar and ubar -> a21 u + a22 ubar."""
        a11, a12 = Coeff.lift(a11), Coeff.lift(a12)
        a21, a22 = Coeff.lift(a21), Coeff.lift(a22)
        out = SeriesTruncation(self.order, {}, self.ring_one)
        for (j, k), val in self.terms.items():
            expanded = {}
            for p in range(j + 1):
                for q in range(k + 1):
                    w = (a11**p) * (a12 ** (j - p)) * (a21**q) * (a22 ** (k - q))
                    w = w * (comb(j, p) * comb(k, q))
                    key = (p + q, (j - p) + (k - q))
                    cur = expanded.get(key)
                    expanded[key] = w if cur is None else cur + w
            add = {key: val * w for key, w in expanded.items() if w}
            out = out + SeriesTruncation(self.order, add, self.ring_one)
        return out


def generating_series_complex(N: int) -> SeriesTruncation:
    """Truncation of exp(u z + ubar zbar - u ubar); the (k, l) coefficient
    times k!*l! is H[k,l]."""
    seed = SeriesTruncation(
        N,
        {
            (1, 0): BiPoly.z(),
            (0, 1): BiPoly.zbar(),
            (1, 1): BiPoly.one() * -1,
        },
        BiPoly.one(),
    )
    return seed.exp()


def generating_series_real(N: int) -> SeriesTruncation:
    """Truncation of exp(2 u x1 - u^2 + 2 ubar x2 - ubar^2); the (k, l)
    coefficient times k!*l! is the product H_k(x1) H_l(x2)."""
    seed = SeriesTruncation(
        N,
        {
            (1, 0): 2 * RealPoly.x1(),
            (0, 1): 2 * RealPoly.x2(),
            (2, 0): RealPoly.one() * -1,
            (0, 2): RealPoly.one() * -1,
        },
        RealPoly.one(),
    )
    return seed.exp()


def _check_lmax(Lmax: int):
    """Reject a negative level bound, which would leave a suite nothing to
    check and a table nothing to show."""
    if Lmax < 0:
        raise ValueError(f"Lmax must be nonnegative, got {Lmax}")


def orthonormality_check(Lmax: int) -> Report:
    """Exact check that <H[m,n], H[k,l]> = m! n! delta delta for m+n, k+l <= Lmax."""
    _check_lmax(Lmax)
    keys = [(m, total - m) for total in range(Lmax + 1) for m in range(total + 1)]
    polys = [hermite_sum(m, n) for m, n in keys]
    t = Tally()
    unpaired = 0
    for i, ((m, n), row) in enumerate(zip(keys, gram(polys, polys))):
        # gram's row holds the pairs with a pairing term; the diagonal is
        # compared even without one, so a zero H[m,n] fails
        paired = row if i in row else sorted([*row, i])
        unpaired += len(keys) - len(paired)
        for j in paired:
            k, l = keys[j]
            want = Coeff(normalizer_sq(m, n)) if i == j else ZERO
            t.compare(row.get(j, ZERO), want, {"m": m, "n": n, "k": k, "l": l})
    # every other pair has no pairing term: its entry is the exact ZERO wanted
    t.checks += unpaired
    return t.report(
        f"orthonormality up to total degree {Lmax}",
        {"Lmax": Lmax, "pairs": t.checks, "violations": t.failures},
    )


def real_orthogonality_check(nmax: int) -> Report:
    """Exact check of the weighted line integrals: sqrt(pi) 2^n n! delta_mn,
    compared as coefficients of sqrt(pi)."""
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    polys = [real_hermite(n) for n in range(nmax + 1)]
    t = Tally()
    for m in range(nmax + 1):
        for n in range(nmax + 1):
            got = real_inner_product(polys[m], polys[n])
            want = Coeff(2**n * factorial(n)) if m == n else ZERO
            t.compare(got, want, {"m": m, "n": n})
    return t.report(
        f"real orthogonality up to degree {nmax}",
        {"nmax": nmax, "violations": t.failures},
    )

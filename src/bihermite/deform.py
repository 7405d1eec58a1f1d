"""Matrix-deformed Hermite families, their level representation matrices,
dual (biorthogonal) families, eigenvalue structure, and the intertwiner
between monomials and Hermite polynomials.

A deformation is an invertible 2x2 complex matrix g.  It replaces the two
raising operators by the linear combinations

    R1 = g11 ad1 + g21 ad2,     R2 = g12 ad1 + g22 ad2,

and the deformed polynomials are Hg[k,l] = R1^k R2^l applied to 1.  Each
total degree L spans an (L+1)-dimensional invariant subspace on which the
action has the closed-form matrix M(g, L); column k of M(g, L) holds the
coordinates of Hg[k, L-k] over the undeformed basis [H[r, L-r]]_r.

The hermitian family is parametrized by a real alpha with 0 < |alpha| < 1:
the deformation matrix is [[alpha, i b], [-i b, alpha]] with b = sqrt(1 -
alpha^2), and theta = 2 alpha b measures the induced noncommutativity.  The
type of alpha picks the backend: an int or Fraction alpha runs exactly and
must make b rational (Pythagorean points such as 3/5, 5/13, 8/17); a float
alpha runs on the float backend.  The level checks but the eigenvalue one
decide a float g exactly, at the dyadic rational value it holds (_exact).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm
from operator import add, mul

from .coeffs import FLOAT_TOL, ONE, ZERO, Coeff, I, _make, _sum_products, close, rational_sqrt
from .hermite import SeriesTruncation, _check_indices, _check_lmax, hermite_sum, normalizer_sq
from .linalg import (
    _berkowitz,
    _charpoly_cleared,
    _components,
    _newton_sums,
    _radical,
    _ring,
    _values,
)
from .poly import BiPoly, gram
from .report import Report, Tally
from .weyl import WeylOp, _raise

__all__ = [
    "AlphaPoint",
    "alpha_matrix",
    "GL2",
    "RepMatrix",
    "DualFamily",
    "deformed_raising",
    "deformed_lowering",
    "deformed_hermite",
    "deformed_generating_series",
    "rep_matrix",
    "rep_laws_check",
    "level_basis",
    "dual_family",
    "biorthogonality_check",
    "eigenvalue_structure_check",
    "monomial_to_hermite",
    "intertwine_check",
]


def _underflows(entries) -> bool:
    """Whether a zero float determinant is the product of underflow: with
    the entries over their largest modulus m, the determinant is nonzero,
    and m^2 times it rounds to zero."""
    if all(c.exact for c in entries):
        return False
    z11, z12, z21, z22 = (c.to_complex() for c in entries)
    m = max(map(abs, (z11, z12, z21, z22)))
    if not m:
        return False
    scaled = (z11 / m) * (z22 / m) - (z12 / m) * (z21 / m)
    return bool(scaled) and abs(scaled) * m * m == 0.0


class GL2:
    """Invertible 2x2 complex matrix; rejects singular or non-finite input at
    construction."""

    __slots__ = ("g11", "g12", "g21", "g22")

    def __init__(self, g11, g12, g21, g22):
        self.g11 = Coeff.lift(g11)
        self.g12 = Coeff.lift(g12)
        self.g21 = Coeff.lift(g21)
        self.g22 = Coeff.lift(g22)
        # a matrix with a float entry computes in float, where a determinant
        # that overflows to inf - inf = nan is nonzero and so not singular
        try:
            det = self.det
            values = (*self.entries(), det)
            finite = self.is_exact() or all(cmath.isfinite(c.to_complex()) for c in values)
        except OverflowError:  # an exact entry beyond float range
            finite = False
        if not finite:
            raise ValueError("float matrix entry or determinant is not a finite number")
        if not det:
            raise ValueError(
                "float determinant underflows to zero" if _underflows(self.entries()) else "matrix is singular"
            )

    @property
    def det(self) -> Coeff:
        return self.g11 * self.g22 - self.g12 * self.g21

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, l1, l2):
        return cls(l1, 0, 0, l2)

    def entries(self):
        return (self.g11, self.g12, self.g21, self.g22)

    def inverse(self) -> GL2:
        d = self.det.inverse()
        return GL2(self.g22 * d, -self.g12 * d, -self.g21 * d, self.g11 * d)

    def conj_transpose(self) -> GL2:
        return GL2(self.g11.conj(), self.g21.conj(), self.g12.conj(), self.g22.conj())

    def __matmul__(self, other: GL2) -> GL2:
        return GL2(
            self.g11 * other.g11 + self.g12 * other.g21,
            self.g11 * other.g12 + self.g12 * other.g22,
            self.g21 * other.g11 + self.g22 * other.g21,
            self.g21 * other.g12 + self.g22 * other.g22,
        )

    def __eq__(self, other):
        return isinstance(other, GL2) and self.entries() == other.entries()

    def is_exact(self) -> bool:
        return all(c.exact for c in self.entries())

    def __repr__(self):
        g = self.entries()
        return f"GL2([[{g[0]}, {g[1]}], [{g[2]}, {g[3]}]])"


class AlphaPoint:
    """Validated deformation parameter, equal to any point with its alpha and beta_im."""

    __slots__ = ("alpha", "beta_im")

    def __init__(self, alpha: Fraction | float, beta_im: Fraction | float):
        self.alpha, self.beta_im = alpha, beta_im  # beta_im = sqrt(1 - alpha^2)

    def __eq__(self, other):
        same_type = isinstance(other, AlphaPoint)
        return same_type and (self.alpha, self.beta_im) == (other.alpha, other.beta_im)

    def __hash__(self):
        return hash((self.alpha, self.beta_im))

    @classmethod
    def make(cls, alpha) -> AlphaPoint:
        """A float alpha runs on the float backend, any other exactly."""
        if isinstance(alpha, float):
            if not 0 < abs(alpha) < 1:
                raise ValueError("alpha must satisfy 0 < |alpha| < 1")
            return cls(alpha, (1 - alpha * alpha) ** 0.5)
        alpha = Fraction(alpha)
        if not 0 < abs(alpha) < 1:
            raise ValueError("alpha must satisfy 0 < |alpha| < 1")
        beta_im = rational_sqrt(1 - alpha * alpha)
        if beta_im is None:
            raise ValueError(
                f"sqrt(1 - alpha^2) is irrational for alpha = {alpha}; "
                "use the float backend for this point"
            )
        return cls(alpha, beta_im)

    @property
    def exact(self) -> bool:
        return not isinstance(self.alpha, float)

    @property
    def theta(self):
        return 2 * self.alpha * self.beta_im


def alpha_matrix(point: AlphaPoint) -> GL2:
    """Hermitian deformation matrix [[alpha, i b], [-i b, alpha]]."""
    a = Coeff.lift(point.alpha)
    # i b on the point's backend, with no exact i met by a float b
    b = I * point.beta_im if point.exact else Coeff.from_complex(complex(0.0, point.beta_im))
    return GL2(a, b, -b, a)


class RepMatrix:
    """(L+1)x(L+1) matrix acting on one level of the Hermite decomposition,
    held as its rows of Coeff.  Products and inverses are linalg's, on the
    rows."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries

    @property
    def L(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, rk):
        r, k = rk
        return self.entries[r][k]

    def adjoint(self) -> RepMatrix:
        """Adjoint with respect to the level inner product.

        The level basis is orthogonal but not normalized (the k-th vector has
        squared norm w_k = k!(L-k)!), so the adjoint matrix is the conjugate
        transpose with exact weights: out[r][k] = conj(self[k][r]) * w_k/w_r.
        For L >= 2 this differs from the plain conjugate transpose.
        """
        n = self.L + 1
        w = [normalizer_sq(k, self.L - k) for k in range(n)]
        m = self.entries
        return RepMatrix(
            [[m[k][r].conj() * Fraction(w[k], w[r]) for k in range(n)] for r in range(n)]
        )

    def __eq__(self, other):
        return isinstance(other, RepMatrix) and self.entries == other.entries

    def to_json(self):
        return {
            "L": self.L,
            "rows": [[c.to_json_value() for c in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj) -> RepMatrix:
        L, rows = obj["L"], obj["rows"]
        if len(rows) != L + 1 or any(len(r) != L + 1 for r in rows):
            raise ValueError("entry grid must be (L+1) x (L+1)")
        return cls([[Coeff.from_json_value(c) for c in row] for row in rows])

    def __repr__(self):
        return f"RepMatrix(L={self.L}, {[[str(c) for c in row] for row in self.entries]})"


def deformed_raising(g: GL2) -> tuple[WeylOp, WeylOp]:
    """The two deformed raising operators (columns of g against ad1, ad2)."""
    ad1, ad2 = (1, 0, 0, 0), (0, 1, 0, 0)
    return WeylOp({ad1: g.g11, ad2: g.g21}), WeylOp({ad1: g.g12, ad2: g.g22})


def deformed_lowering(g: GL2) -> tuple[WeylOp, WeylOp]:
    """Formal adjoints of the deformed raising pair.

    Kept as pure lowering combinations so both deformed annihilators kill the
    constant polynomial; swapping in a raising term for the cross mode would
    break that.
    """
    a1, a2 = (0, 0, 1, 0), (0, 0, 0, 1)
    return (
        WeylOp({a1: g.g11.conj(), a2: g.g21.conj()}),
        WeylOp({a1: g.g12.conj(), a2: g.g22.conj()}),
    )


def deformed_hermite(g: GL2, k: int, l: int) -> BiPoly:
    """Scaled deformed polynomial Hg[k,l] = R1^k R2^l applied to 1 (on g's backend).

    R2 is applied l times and then R1 k times, one degree-1 operator at a
    time, the steps by which _raised_walk raises the same polynomial in its
    component term maps."""
    _check_indices(k, l)
    r1, r2 = deformed_raising(g)
    p = BiPoly.monomial(0, 0, g.det**0)
    for _ in range(l):
        p = r2.apply(p)
    for _ in range(k):
        p = r1.apply(p)
    return p


def deformed_generating_series(g: GL2, N: int) -> SeriesTruncation:
    """Truncation of exp((g11 u + g12 ub) z + (g21 u + g22 ub) zbar
    - (g11 u + g12 ub)(g21 u + g22 ub)); coefficient (k, l) times k!*l!
    is Hg[k,l]."""
    z, zbar = BiPoly.z(), BiPoly.zbar()
    one = BiPoly.monomial(0, 0, g.det**0)  # the constant term on g's backend
    seed = SeriesTruncation(
        N,
        {
            (1, 0): z * g.g11 + zbar * g.g21,
            (0, 1): z * g.g12 + zbar * g.g22,
            (2, 0): one * (-(g.g11 * g.g21)),
            (1, 1): one * (-(g.g11 * g.g22 + g.g12 * g.g21)),
            (0, 2): one * (-(g.g12 * g.g22)),
        },
        one,
    )
    return seed.exp()


def rep_matrix(g: GL2, L: int) -> RepMatrix:
    """Closed-form level-L matrix M(g, L).

    M[r,k] = sum_q C(k,q) C(L-k, r-q) g11^q g21^(k-q) g12^(r-q) g22^(L-k+q-r),
    the coefficient of s^r t^(L-r) in (g11 s + g21 t)^k (g12 s + g22 t)^(L-k).
    Column k is the convolution of the binomial rows of the two factors, built
    from one power table per entry of g.
    """
    if L < 0:
        raise ValueError("level must be nonnegative")

    def powers(c):
        out = [c**0]
        for _ in range(L):
            out.append(out[-1] * c)
        return out

    p11, p12, p21, p22 = (powers(c) for c in g.entries())
    # left[n][q] = C(n,q) g11^q g21^(n-q), right[n][p] = C(n,p) g12^p g22^(n-p)
    left = [[p11[q] * p21[n - q] * comb(n, q) for q in range(n + 1)] for n in range(L + 1)]
    right = [[p12[p] * p22[n - p] * comb(n, p) for p in range(n + 1)] for n in range(L + 1)]

    def entry(r, k):  # one chain, reduced once when exact
        a, b = left[k], right[L - k]
        return _sum_products([(a[q], b[r - q], 1) for q in range(max(0, r + k - L), min(r, k) + 1)])

    return RepMatrix([[entry(r, k) for k in range(L + 1)] for r in range(L + 1)])


# -- the level walk ------------------------------------------------------
#
# M(g, L) and the family Hg[k, L-k] are homogeneous of degree L in the
# entries of g.  So the walks run on G = q_g g, q_g the lcm of g's
# denominators, whose M(G, L) = q_g^L M(g, L) and raised families are
# integral, held in linalg's component lists (over Z[i, sqrt2] when radical,
# else over Z[i]).  A float g is walked at the exact value it holds
# (_exact); only eigenvalue_structure_check walks float slots.


def _exact(g: GL2) -> GL2:
    """g at the exact value it holds, the one place where a float entry
    becomes exact: each float slot x is the dyadic rational Fraction(x).
    Exact entries stay as they are, sqrt2 slots included."""
    if g.is_exact():
        return g
    return GL2(*(c if c.exact else Coeff(Fraction(c.a), Fraction(c.b)) for c in g.entries()))


def _cleared(g: GL2):
    """(q_g, G = q_g g), q_g the lcm of the denominators of g at its exact
    value (_exact); on a float g, a power of 2.

    No input is refused for its size, and a float g costs what its doubles'
    exponents make of G: 1e-300 has a denominator of 2^1049.  With g =
    GL2(1e-300+0.3j, 1e300, 0.7, 1.5), rep_laws_check(g, g, L),
    biorthogonality_check and intertwine_check took 39, 14 and 4 ms at
    L = 5 (2.1, 0.9 and 1.0 ms at float alpha 0.6), and 2.4, 1.0 and 0.15 s
    at L = 12 (CPython 3.11, 2-vCPU VM)."""
    g = _exact(g)
    qg = lcm(*(c.q for c in g.entries()))
    return qg, (GL2(*(c * qg for c in g.entries())) if qg != 1 else g)


def _on_float(g: GL2) -> GL2:
    """g with every entry on the float backend."""
    return GL2(*(c.to_float() for c in g.entries()))


def _scalars(G: GL2, radical):
    """G11, G12, G21, G22, each as the tuple of its components."""
    return list(zip(*_components(G.entries(), 1, radical)))


def _times_linear(column, a, b, times) -> tuple:
    """Coefficients of (a s + b t) p at s^r t^(n+1-r), r = 0..n+1, from those
    of p at s^r t^(n-r), as component lists: each a Coeff sum of two Coeff
    products, in that order, so float slots keep the Coeff walk's bits.
    Over Z[i] and on float the two products are written out: levels 0..8
    of a float g took 0.57 of the time of two times calls and a sum
    (CPython 3.11, 2-vCPU VM)."""
    if len(column) == 2:
        (ar, ai), (br, bi), (cr, ci) = a, b, column
        pairs = list(zip(cr, ci, cr[1:], ci[1:]))
        return (
            [br * cr[0] - bi * ci[0]]
            + [(ar * x - ai * y) + (br * u - bi * v) for x, y, u, v in pairs]
            + [ar * cr[-1] - ai * ci[-1]],
            [br * ci[0] + bi * cr[0]]
            + [(ar * y + ai * x) + (br * v + bi * u) for x, y, u, v in pairs]
            + [ar * ci[-1] + ai * cr[-1]],
        )
    below = times(tuple(map(repeat, a)), column)
    here = times(tuple(map(repeat, b)), column)
    return tuple([y[0], *map(add, x, y[1:]), x[-1]] for x, y in zip(below, here))


def _level_walk(G: GL2, radical):
    """The level matrices M(G, 0), M(G, 1), M(G, 2), ... of an integral or
    float G, each as its columns: column k is the vector of component lists
    holding M[r, k] at r.  Each level comes from the one below: column 0 of
    level L is (G12 s + G22 t) times column 0 of level L-1, and column k >= 1
    is (G11 s + G21 t) times column k-1.  The closed form rep_matrix is its
    reference."""
    g11, g12, g21, g22 = _scalars(G, radical)
    _, times = _ring(radical)
    columns = [_components([G.g11**0], 1, radical)]  # 1 on G's backend
    while True:
        yield columns
        columns = [_times_linear(columns[0], g12, g22, times)] + [
            _times_linear(c, g11, g21, times) for c in columns
        ]


def _coeff_rows(columns) -> list:
    """The Coeff rows of a float level matrix held as its columns: its slots,
    those of the same walk in Coeff arithmetic, bit for bit."""
    view = [[_make(x, y, 0.0, 0.0, 1, False) for x, y in zip(*c)] for c in columns]
    return [list(row) for row in zip(*view)]


def _raised(p, x, y, times):
    """x ad1 p + y ad2 p for a polynomial p held as one term map per
    component: weyl's ad1 and ad2 raise each component, and the scalars x
    and y (as _scalars gives them) multiply in the ring."""
    up, across = [_raise(m, 1) for m in p], [_raise(m, 2) for m in p]
    keys = list(dict.fromkeys(k for m in (*up, *across) for k in m))
    u = times(tuple(map(repeat, x)), tuple([m.get(k, 0) for k in keys] for m in up))
    v = times(tuple(map(repeat, y)), tuple([m.get(k, 0) for k in keys] for m in across))
    return tuple({k: s for k, s in zip(keys, map(add, mu, mv)) if s} for mu, mv in zip(u, v))


def _raised_walk(G: GL2, radical):
    """The deformed families [Hg[k, L-k]]_k of an integral G, levels L = 0,
    1, 2, ..., each polynomial as one {(a, b): int} term map per component.
    It walks integral G only: a float g is raised at its dyadic value
    (_cleared).  Each level is raised from the one below, one raise per
    polynomial: Hg[0, L] = R2 Hg[0, L-1] and Hg[k, L-k] = R1 Hg[k-1, L-k],
    with R1 = G11 ad1 + G21 ad2 and R2 = G12 ad1 + G22 ad2.  It shares
    nothing with M(G, L) or hermite_sum, so it verifies them."""
    g11, g12, g21, g22 = _scalars(G, radical)
    _, times = _ring(radical)
    family = [tuple({(0, 0): x for x in m if x} for m in _components([ONE], 1, radical))]
    while True:
        yield family
        family = [_raised(family[0], g12, g22, times)] + [
            _raised(p, g11, g21, times) for p in family
        ]


def _combination(column, basis):
    """sum_r column[r] basis[r] as one term map per component, for a column
    of integral component lists and integral term maps basis[r]
    whose keys never meet, such as those of H[r, L-r]: each term is one
    product.  None when the column needs a basis[r] that is None."""
    if None in basis and any(comp[r] for comp in column for r, m in enumerate(basis) if m is None):
        return None
    return tuple(
        {key: m * c for m, terms in zip(comp, basis) if m for key, c in terms.items()}
        for comp in column
    )


def _integral_terms(p: BiPoly) -> dict | None:
    """The {(a, b): int} term map of a polynomial with rational integer
    coefficients, or None when a coefficient is not one: the basis[r] of
    _combination."""
    if any([c.q != 1 or c.b or c.c or c.d for c in p.terms.values()]):
        return None
    return {key: c.a for key, c in p.terms.items()}


def level_basis(L: int, g: GL2) -> list[BiPoly]:
    """The deformed level-L family of g in the conventional order: position j
    holds Hg[L-j, j], whose squared normalizer is normalizer_sq(L-j, j).  The
    undeformed family is that of GL2.identity().

    Hg[k, L-k] is sum_r M[r,k] H[r, L-r], column k of M(g, L) over the
    hermite_sum basis.  The families raised by the operators R1 and R2 are
    the independent route, which rep_laws_check's action law compares with
    this one.
    """
    if L < 0:
        raise ValueError("level must be nonnegative")
    return _level_basis(L, rep_matrix(g, L))


def _level_basis(L: int, M: RepMatrix) -> list[BiPoly]:
    """The level-L family Hg[k, L-k] = sum_r M[r,k] H[r, L-r] of the level
    matrix M, with k = L first.

    Each H[r, L-r] holds only keys with z-degree minus zbar-degree 2r - L,
    so the terms of the sum never meet and each is one product, of M[r,k]
    and an int: a float M[r,k] meets no exact value.
    """
    basis = [_integral_terms(hermite_sum(r, L - r)) for r in range(L + 1)]  # basis[r] = H[r, L-r]
    empty = BiPoly()
    polys = []
    for k in range(L, -1, -1):
        terms = {}
        for r, h in enumerate(basis):
            m = M[r, k]
            if m:
                for key, c in h.items():
                    terms[key] = m * c
        polys.append(empty._like(terms))
    return polys


def rep_laws_check(g: GL2, h: GL2, Lmax: int) -> Report:
    """The laws that make M(., L) a representation of GL(2, C), at each level
    L <= Lmax: M(1, L) is the identity, M(g, L) M(h, L) = M(gh, L), the level
    adjoint of M(g, L) is M(g*, L), M(g, L) is inverted by M(g^-1, L), and
    M(g, L) acts on the deformed family.

    Each law is an identity between the component lists of the level walks
    (_laws), compared literally.  A float entry is read as the dyadic
    rational it holds (_exact), so on float g and h a pass means that the
    laws hold at the matrices passed, not near them.

    The action law certifies the index convention: each Hg[k, L-k], raised by
    the operators R1 and R2 in one walk up the levels, equals
    sum_r M[r,k] H[r, L-r], with M(g, L) from the walk the other laws read.
    The H[r, L-r] are linearly independent, so column k of M(g, L) holds the
    coordinates of Hg[k, L-k] over the undeformed basis, and the level is
    invariant.

    Failures are listed as {"L", "law"}, level by level in that law order."""
    _check_lmax(Lmax)
    t = Tally()
    for L, holds in zip(range(Lmax + 1), _laws(g, h)):
        for law, ok in holds.items():
            t.check(ok, {"L": L, "law": law})
    return t.report(
        f"representation-matrix laws up to level {Lmax}",
        {"Lmax": Lmax, "failures": t.failures},
    )


def _rows(columns) -> list:
    """The rows of a matrix held as its columns, in the same layout."""
    parts = range(len(columns[0]))
    return [tuple([c[i][r] for c in columns] for i in parts) for r in range(len(columns))]


def _diagonal(x, weights) -> list:
    """The columns of x diag(weights), which are its rows too, for the
    scalar x given as a vector of component lists of length 1."""
    n = len(weights)
    return [tuple([m[0] * v if r == k else 0 for r in range(n)] for m in x) for k, v in enumerate(weights)]


def _laws(g: GL2, h: GL2):
    """The laws of rep_laws_check at L = 0, 1, 2, ... between the component
    lists of the walks of G = q_g g and H = q_h h, W_L = diag(r!(L-r)!):
        identity  M(1, L) = I;
        product   M(G, L) M(H, L) = M(GH, L);
        adjoint   W_L M(G*, L) = M(G, L)* W_L;
        inverse   M(adj G, L) M(G, L) = det(G)^L I, adj G = [[G22, -G12],
                  [-G21, G11]], with no division;
        action    raised_G[k] = sum_r M(G)[r, k] H[r, L-r].
    Each is the law for g and h times a power of q_g and q_h, so it is that
    law, and each compares literally: _exact reads a float entry at its
    exact value."""
    (_, G), (_, H) = _cleared(g), _cleared(h)
    radical = _radical([*G.entries(), *H.entries()])
    matvec, times = _ring(radical)
    walks = (GL2.identity(), G, H, G @ H, G.conj_transpose(), GL2(G.g22, -G.g12, -G.g21, G.g11))
    unit, det = (_components([c], 1, radical) for c in (ONE, G.det))
    det_L = unit  # det(G)^L
    levels = zip(_raised_walk(G, radical), *(_level_walk(m, radical) for m in walks))
    for L, (raised, M1, MG, MH, MGH, MG_dagger, M_adj) in enumerate(levels):
        n, rows = L + 1, _rows(MG)
        w = [normalizer_sq(r, L - r) for r in range(n)]
        # row r of W_L M(G*, L) is w_r times that of M(G*, L), and column k
        # of M(G, L)* W_L is w_k times the conjugate of row k of M(G, L)
        left = [tuple(list(map(mul, w, m)) for m in c) for c in MG_dagger]
        right = [tuple([s * x for x in m] for s, m in zip((wk, -wk, wk, -wk), row)) for wk, row in zip(w, rows)]
        hermite = [_integral_terms(hermite_sum(r, L - r)) for r in range(n)]
        yield {
            "identity": M1 == _diagonal(unit, [1] * n),
            "product": [matvec(rows, c) for c in MH] == MGH,
            "adjoint": left == right,
            "inverse": [matvec(_rows(M_adj), c) for c in MG] == _diagonal(det_L, [1] * n),
            "action": raised == [_combination(c, hermite) for c in MG],
        }
        det_L = times(det_L, det)


class DualFamily:
    """Level-L dual family; consistent says whether it is biorthogonal to g's family at the level."""

    __slots__ = ("g_dual", "polys", "matrix_direct", "consistent")

    def __init__(self, g_dual: GL2, polys: list, matrix_direct: RepMatrix, consistent: bool):
        self.g_dual, self.polys = g_dual, polys  # polys[j] is Hdual[L-j, j], as in level_basis
        self.matrix_direct, self.consistent = matrix_direct, consistent


def dual_family(g: GL2, L: int) -> DualFamily:
    """The level-L family of g_dual = (g*)^-1 and M(g_dual, L), on g's backend.
    consistent: level L's block of _biorth_pairings, at g's exact value, is
    det(G)^L W_L literally; it reads neither g_dual nor its matrix."""
    g_dual = g.conj_transpose().inverse()
    direct = rep_matrix(g_dual, L)
    S, det_L = _biorth_pairings(g, (L,))[L]
    consistent = S == _diagonal(det_L, [normalizer_sq(r, L - r) for r in range(L + 1)])
    return DualFamily(g_dual, _level_basis(L, direct), direct, consistent)


def biorthogonality_check(g: GL2, Lmax: int) -> Report:
    """Exact pairing of the deformed family with its dual across levels.

    <Hdual[L-n, n], Hg[M-k, k]> must be (L-n)! n! when (L,n) == (M,k) and 0
    otherwise, including all cross-level pairs up to Lmax.  Each level's own
    block is the identity S = det(G)^L W_L of _biorth_pairings, compared
    literally one pairing at a time; a failed one records S[n][k]/det(G)^L.
    The undeformed Gram, checked to be integral and diagonal, pairs no two
    levels, so each cross-level pairing sums no term and is counted as the
    exact zero.  A float g is paired exactly, at the dyadic value it holds
    (_exact).
    """
    _check_lmax(Lmax)
    levels = range(Lmax + 1)
    blocks = _biorth_pairings(g, levels)
    t = Tally()
    for L in levels:
        S, det_L = blocks[L]
        wants = _diagonal(det_L, [normalizer_sq(r, L - r) for r in range(L + 1)])
        for n, (row, wanted) in enumerate(zip(S, wants)):
            for k, (got, want) in enumerate(zip(_values(row), _values(wanted))):
                if not t.check(got == want, where := {"L": L, "M": L, "n": n, "k": k}):
                    value = _make(*got, 1, True) / _make(*next(_values(det_L)), 1, True)
                    where.update(value=str(value), expected=str(normalizer_sq(L - n, n) if n == k else 0))
    # the undeformed Gram is diagonal, so each cross-level pairing sums no
    # term: it is the exact zero wanted
    N = sum(L + 1 for L in levels)
    t.checks += N * N - sum((L + 1) ** 2 for L in levels)
    return t.report(
        f"biorthogonality up to level {Lmax}",
        {"Lmax": Lmax, "violations": t.failures},
        f" ({t.checks} pairings)",
    )


def _biorth_pairings(g: GL2, levels) -> dict:
    """The blocks {L: (S, det(G)^L)} of the pairings <Hdual[L-n, n], Hg[L-k,
    k]> = S[n][k] / det(G)^L for each L in levels: S as its rows of component
    lists, det(G)^L as a vector of length 1, G = q_g g at g's exact value.

    conj(g_dual) is q_g A / det(G), A = adj(G^T) = [[G22, -G21], [-G12, G11]],
    so S[n][k] = sum_r M(A)[r, L-n] M(G)[r, L-k] w_r, w_r = <H[r, L-r],
    H[r, L-r]>, sums integers on whole walk columns, with no inverse and no
    conjugate: biorthogonality is M(A, L)^T W_L M(G, L) = det(G)^L W_L.  The
    undeformed Gram of the levels' basis, cross-level pairs included, must be
    integral and diagonal, so no orthogonality is assumed and no two levels
    pair; a diagonal entry that it leaves out reads as the weight 0."""
    _, G = _cleared(g)
    radical = _radical(G.entries())
    matvec, times = _ring(radical)
    basis = [hermite_sum(r, L - r) for L in levels for r in range(L + 1)]
    rows = gram(basis, basis)
    if not all(c.exact and c.q == 1 and c.is_rational() for row in rows for c in row.values()):
        raise ArithmeticError("the Gram matrix of the undeformed basis is not integral")
    if any(c for i, row in enumerate(rows) for j, c in row.items() if j != i):
        raise ArithmeticError("the Gram matrix of the undeformed basis is not diagonal")
    weights = iter([row.get(i, ZERO).a for i, row in enumerate(rows)])
    w = {L: [next(weights) for _ in range(L + 1)] for L in levels}
    det, det_L = (_components([c], 1, radical) for c in (G.det, ONE))
    walks = _level_walk(GL2(G.g22, -G.g21, -G.g12, G.g11), radical), _level_walk(G, radical)
    blocks = {}
    for L, MA, MG in zip(range(max(levels) + 1), *walks):
        if L in w:  # row n: w_r M(A)[r, L-n] against each column M(G)[., L-k]
            blocks[L] = [matvec(MG[::-1], tuple(list(map(mul, w[L], m)) for m in a)) for a in MA[::-1]], det_L
        det_L = times(det, det_L)
    return blocks


def eigenvalue_structure_check(g: GL2, Lmax: int) -> Report:
    """Eigenvalues of each level matrix M(g, L), L <= Lmax, must be the
    products l1^k l2^(L-k) of the eigenvalues of g itself, counted with
    multiplicity.

    Checked without eigenvalues: the power sums p_j, j = 1..L+1, of the
    characteristic polynomial of M(g, L) fix its spectrum, and the claimed
    spectrum has p_j = h_L(tr g^j, det g^j) with h_(-1) = 0, h_0 = 1 and
    h_(n+1) = s h_n - q h_(n-1).

    On exact g the levels walked are those of G = q_g g, q_g the lcm of g's
    denominators, and float g is walked on float as it is (q_g = 1).  Both
    sides of p_j(M(G, L)) = h_L(tr G^j, det G^j) are those of the claim for
    g times q_g^(jL), so it is the claim: a literal equality of integers on
    exact g, repeated eigenvalues included, and one within FLOAT_TOL on
    float g, whose eigenvalues must be distinct (at its dyadic value, as the
    other level checks read it, Lmax 8 cost 2.9 times as much).  On exact g
    the walk's integral lists go straight to _berkowitz; float g reads the
    walk's Coeff view into _charpoly_cleared, which takes the Hessenberg
    route.

    Failures are listed as {"L", "power_sum"}, level by level.
    """
    _check_lmax(Lmax)
    exact = g.is_exact()
    mode = "exact-power-sums" if exact else "float"
    payload = {"Lmax": Lmax, "mode": mode}
    G = _cleared(g)[1] if exact else _on_float(g)
    s, q = G.g11 + G.g22, G.det
    if not exact:
        # defective pairs are only resolvable to ~sqrt(machine eps), so
        # the distinctness cut is much looser than the matching tolerance
        if abs(s * s - 4 * q) <= 1e-6 * max(1.0, abs(s) ** 2):
            return Report(
                "error", "eigenvalue structure: repeated eigenvalues are unsupported", payload
            )
        payload["tolerance"] = FLOAT_TOL
    # s_j = tr G^j and q_j = det G^j, j = 1..Lmax+1, from s_0 = 2 and
    # s_j = s s_(j-1) - q s_(j-2)
    traces, dets, s_prev = [s], [q], 2
    for _ in range(Lmax):
        s_prev, s_j = traces[-1], s * traces[-1] - q * s_prev
        traces.append(s_j)
        dets.append(dets[-1] * q)
    radical = _radical(G.entries())
    _, times = _ring(radical)
    S, P = (_components(v, 1, radical) for v in (traces, dets))
    # h_(L-1) and h_L at every j at once, one step of the recurrence a level
    h_prev = tuple([0] * len(traces) for _ in S)
    h = ([1] * len(traces), *h_prev[1:])
    polys = (
        _berkowitz(c, radical) if exact else _charpoly_cleared(_coeff_rows(c))[1]
        for c in _level_walk(G, radical)
    )
    t = Tally()
    for L, poly in zip(range(Lmax + 1), polys):
        for j, (x, y) in enumerate(zip(_values(_newton_sums(poly)), _values(h)), 1):
            # close is literal on exact values, so x == y decides an exact check
            ok = x == y or close(_make(*x, 1, exact), _make(*y, 1, exact))
            t.check(ok, {"L": L, "power_sum": f"p_{j}"})
        sh, qh = times(S, h), times(P, h_prev)
        h_prev, h = h, tuple([x - y for x, y in zip(a, b)] for a, b in zip(sh, qh))
    payload["power_sums"] = t.checks
    payload["failures"] = t.failures
    return t.report(f"eigenvalue structure ({mode}) up to level {Lmax}", payload)


def monomial_to_hermite(p: BiPoly) -> BiPoly:
    """Apply exp(-d/dz d/dzbar) to a polynomial.

    The mixed-derivative series terminates because each step lowers both
    degrees; on z^m zbar^n it produces the scaled Hermite polynomial H[m,n].
    """
    out = p
    term = p
    j = 0
    while True:
        term = term.diff("z").diff("zbar")
        if not term:
            return out
        j += 1
        out = out + term * Fraction((-1) ** j, factorial(j))


def intertwine_check(g: GL2, Lmax: int) -> Report:
    """Two exact facts about E = exp(-d/dz d/dzbar).

    First, E maps each monomial z^m zbar^n (m+n <= Lmax) to H[m,n].  Second,
    E intertwines the coordinate action with the deformed family: for every
    level L <= Lmax and column k, applying E to sum_r M[r,k] z^r zbar^(L-r)
    gives the deformed polynomial Hg[k, L-k].

    The second is checked for G = q_g g, a float entry read at its exact
    value (_exact): E is linear, so the image of the sum is sum_r M(G)[r, k]
    E(z^r zbar^(L-r)) over the images of the first part, each integral, and
    it must equal the raised family of G literally.  A column that needs an
    image with a coefficient other than a rational integer fails.
    """
    _check_lmax(Lmax)
    t = Tally()
    images = {}
    for total in range(Lmax + 1):
        for m in range(total + 1):
            n = total - m
            images[m, n] = image = monomial_to_hermite(BiPoly.monomial(m, n))
            t.check(image == hermite_sum(m, n), {"kind": "monomial", "m": m, "n": n})
    _, G = _cleared(g)
    radical = _radical(G.entries())
    levels = zip(_raised_walk(G, radical), _level_walk(G, radical))
    for L, (raised, columns) in zip(range(Lmax + 1), levels):
        basis = [_integral_terms(images[r, L - r]) for r in range(L + 1)]
        for k, column in enumerate(columns):
            t.check(_combination(column, basis) == raised[k], {"kind": "operator", "L": L, "k": k})
    return t.report(f"intertwining up to level {Lmax}", {"Lmax": Lmax, "failures": t.failures})

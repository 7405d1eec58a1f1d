"""Small dense linear algebra over Coeff matrices.

Everything here runs on lists of lists of Coeff and works for both scalar
backends: a pivot is a nonzero entry, on float input (mat_inverse aside) one
above FLOAT_TOL.  A matrix is on the float backend when any entry is a float;
a zero or one that lands in a result is taken from an entry, so results are
on the input's backend.  One elimination (_eliminate) serves matrix inverses,
span solves, ranks and nullspaces.

charpoly gives the characteristic polynomials that the eigenvalue-structure
check and the Killing-form test of the Lie-algebra classification read.  It
is a Coeff view of _charpoly_cleared, which reads the backend once: exact
input runs Berkowitz's division-free algorithm (_berkowitz) on the integral
numerators, held as plain int lists, which deform's level walk also hands it
directly, and float input a Hessenberg reduction, whose bits
are pinned and which the tests keep as the verifier of the exact kernel.  The
Newton sums (_newton_sums) read either polynomial's lists.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter, mul

from .coeffs import ONE, ZERO, Coeff, _make, _sum_products, backend_tol

__all__ = [
    "identity_matrix",
    "mat_mul",
    "mat_inverse",
    "solve_in_span",
    "nullspace",
    "rank",
    "charpoly",
]


def _zero_like(rows) -> Coeff:
    """0 on the backend of a matrix: a float entry times 0 when there is one,
    else the exact ZERO."""
    return min((c for row in rows for c in row), key=attrgetter("exact"), default=ZERO) * 0


def identity_matrix(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product a b: each entry is one _sum_products call over its row
    and column, reduced once when exact, and on float the chain
    a[i][0] b[0][j] + a[i][1] b[1][j] + ..., whose bits it keeps."""
    columns = list(zip(*b))
    return [[_sum_products([(x, y, 1) for x, y in zip(row, col)]) for col in columns] for row in a]


def _pivot_index(column, start, tol):
    """Row index of the pivot at or below start, or None."""
    best, best_abs = None, tol
    for i in range(start, len(column)):
        c = column[i]
        if tol == 0.0:
            if c:
                return i
        else:
            a = abs(c)
            if a > best_abs:
                best, best_abs = i, a
    return best


def _eliminate(rows, tol, ncols):
    """In-place forward elimination over columns < ncols; returns (row, col) pivots."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        col = [rows[i][c] for i in range(nrows)]
        p = _pivot_index(col, r, tol)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def mat_inverse(a):
    n = len(a)
    one = _zero_like(a) ** 0  # the identity half on a's backend: no exact 1 or 0 meets a float
    zero = one * 0
    rows = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    # first nonzero pivot on both backends: a largest-pivot search would move
    # float results, such as which `verify repmat --backend float` seeds fail
    pivots = _eliminate(rows, 0.0, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rows]


def charpoly(rows) -> list:
    """Coefficients of det(x I - A), lowest degree first and monic: the
    Coeff view of _charpoly_cleared, which reads the backend.  Coefficient
    k of Q A's polynomial is divided by Q^(n-k) once, at the end, so exact
    input gives the polynomial literally and float input the Hessenberg
    polynomial's slots bit for bit.
    """
    Q, poly = _charpoly_cleared(rows)
    n = len(rows)
    exact = type(poly[0][-1]) is int  # the leading 1
    return [_make(*parts, Q ** (n - k), exact) for k, parts in enumerate(_values(poly))]


# -- integers of Z[i, sqrt2] as component lists ----------------------------
#
# A vector of values a + b i + (c + d i) sqrt2 with int a, b, c, d is held as
# the tuple of its component lists ([a...], [b...], [c...], [d...]), or as
# ([a...], [b...]) over Z[i] when no value has a radical part.  The code
# takes float components unchanged: a float vector is ([re...], [im...]).


def _components(values, Q, radical):
    """The component lists of Q times each exact value; Q must clear every
    denominator."""
    f = [Q // c.q for c in values]
    parts = [c.a * x for c, x in zip(values, f)], [c.b * x for c, x in zip(values, f)]
    if radical:
        parts += [c.c * x for c, x in zip(values, f)], [c.d * x for c, x in zip(values, f)]
    return parts


def _radical(values) -> bool:
    """Whether a value has a sqrt2 part, so that the component lists of the
    vector run over Z[i, sqrt2] rather than Z[i]."""
    return any([c.c or c.d for c in values])


def _values(parts):
    """The (a, b, c, d) ints of each value of a vector."""
    if len(parts) == 2:
        zeros = [0] * len(parts[0])
        parts = (*parts, zeros, zeros)
    return zip(*parts)


def _matvec_gaussian(rows, v):
    """The products of rows with v over Z[i], each row a vector; a row
    longer than v is read up to the length of v."""
    vr, vi = v
    return (
        [sum(map(mul, a, vr)) - sum(map(mul, b, vi)) for a, b in rows],
        [sum(map(mul, a, vi)) + sum(map(mul, b, vr)) for a, b in rows],
    )


def _matvec_radical(rows, v):
    """_matvec_gaussian over Z[i, sqrt2]."""
    a2, b2, c2, d2 = v
    return (
        [sum(map(mul, a, a2)) - sum(map(mul, b, b2)) + 2 * (sum(map(mul, c, c2)) - sum(map(mul, d, d2)))
         for a, b, c, d in rows],
        [sum(map(mul, a, b2)) + sum(map(mul, b, a2)) + 2 * (sum(map(mul, c, d2)) + sum(map(mul, d, c2)))
         for a, b, c, d in rows],
        [sum(map(mul, a, c2)) - sum(map(mul, b, d2)) + sum(map(mul, c, a2)) - sum(map(mul, d, b2))
         for a, b, c, d in rows],
        [sum(map(mul, a, d2)) + sum(map(mul, b, c2)) + sum(map(mul, c, b2)) + sum(map(mul, d, a2))
         for a, b, c, d in rows],
    )  # fmt: skip


def _times_gaussian(u, v):
    """The products u[t] v[t] over Z[i], as long as the shorter vector."""
    (ar, ai), (vr, vi) = u, v
    return (
        [a * p - b * q for a, b, p, q in zip(ar, ai, vr, vi)],
        [a * q + b * p for a, b, p, q in zip(ar, ai, vr, vi)],
    )


def _times_radical(u, v):
    """_times_gaussian over Z[i, sqrt2]."""
    z = list(zip(*u, *v))
    return (
        [a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2) for a1, b1, c1, d1, a2, b2, c2, d2 in z],
        [a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2) for a1, b1, c1, d1, a2, b2, c2, d2 in z],
        [a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2 for a1, b1, c1, d1, a2, b2, c2, d2 in z],
        [a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2 for a1, b1, c1, d1, a2, b2, c2, d2 in z],
    )


def _ring(radical):
    """(matvec, times) over Z[i, sqrt2] when radical, else over Z[i]."""
    return (_matvec_radical, _times_radical) if radical else (_matvec_gaussian, _times_gaussian)


def _charpoly_cleared(rows):
    """(Q, det(x I - Q A)) for a square A, the polynomial as component
    lists, lowest degree first: the one reading of the backend.  On float
    input Q = 1, and the lists are the real and imaginary slots of
    _hessenberg_charpoly, bit for bit.  On exact input Q is the lcm of the
    entries' denominators, and _berkowitz runs on the rows of Q A.
    """
    entries = [c for row in rows for c in row]
    if not all([c.exact for c in entries]):
        poly = _hessenberg_charpoly(rows)
        return 1, ([c.a for c in poly], [c.b for c in poly])
    n = len(rows)
    Q = math.lcm(*[c.q for c in entries])
    radical = _radical(entries)
    flat = _components(entries, Q, radical)
    return Q, _berkowitz([tuple([m[i * n : i * n + n] for m in flat]) for i in range(n)], radical)


def _berkowitz(rows, radical):
    """det(x I - A) for a square integral A held as its rows, each a vector
    of component lists (over Z[i, sqrt2] when radical, else over Z[i]), the
    polynomial as component lists, lowest degree first.  The columns of A
    give the same polynomial, that of its transpose.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18 (1984) 147).
    Step r borders the leading r x r block A_r with the row R = A[r][:r], the
    column C = A[:r][r] and the diagonal entry a:
        p_(r+1) = (x - a) p_r - sum_(k<r) (R A_r^k C) (p_r // x^(k+1)),
    the product of p_r with the Toeplitz matrix whose first column is
    1, -a, -R C, -R A_r C, ...  When R or C is zero every Krylov product
    R A_r^k C is zero and none is formed, so a triangular matrix costs
    O(n^2).  No Coeff is built and no inverse is taken.
    """
    matvec, times = _ring(radical)
    poly = ([1], [0], [0], [0]) if radical else ([1], [0])  # p_0 = 1
    for r, row in enumerate(rows):
        block = rows[:r]  # A_r, each row read up to column r by matvec
        a = tuple([m[r] for m in row])
        border = tuple([m[:r] for m in row])
        column = tuple([[m[r] for m in comp] for comp in zip(*block)]) if any(map(any, border)) else ()
        if any(map(any, column)):
            # the Krylov vectors A_r^k C and the products R A_r^k C, k < r
            krylov = [column]
            for _ in range(r - 1):
                krylov.append(matvec(block, krylov[-1]))
            w = matvec(krylov, border)
            # the Toeplitz column below its 1, negated: a, R C, R A_r C, ...;
            # entry i of `less` is its product with the coefficients of
            # p_r // x^i, sum_m toeplitz[m] p_r[i + m]
            toeplitz = tuple([x] + m for x, m in zip(a, w))
            less = matvec(list(zip(*[[m[i:] for i in range(r + 1)] for m in poly])), toeplitz)
        else:
            less = times(tuple(map(repeat, a)), poly)  # a p_r
        poly = tuple([x - y for x, y in zip([0] + m, c + [0])] for m, c in zip(poly, less))
    return poly


def _newton_sums(poly):
    """The power sums p_1 .. p_n of the roots of a monic polynomial of
    degree n, integral or float, both as component lists, the polynomial
    lowest degree first, by Newton's identities: with e_j its coefficient of
    x^(n - j), p_j = -(j e_j + sum_(0<i<j) e_i p_(j-i)).  No division."""
    matvec, _ = _ring(len(poly) == 4)
    e = [m[-2::-1] for m in poly]  # e_1, ..., e_n, read up to j - 1 terms
    sums = [[] for _ in poly]  # p_(j-1), ..., p_1: latest first
    for j in range(1, len(e[0]) + 1):
        for out, m, (x,) in zip(sums, e, matvec([e], sums)):
            out.insert(0, -(j * m[j - 1] + x))
    return tuple([m[::-1] for m in sums])


def _hessenberg_charpoly(rows) -> list:
    """charpoly by similarity: the float route, and the verifier of the
    exact kernel in the tests.

    A is first reduced to upper Hessenberg form by elementary similarities
    (swap two rows and the same two columns; subtract u times row m from row i
    and add u times column i to column m), then the characteristic polynomial
    of the Hessenberg matrix follows from the recurrence over its leading
    blocks (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    Pivots are the first nonzero entry when exact and the largest modulus
    above FLOAT_TOL on float, so exact input gives the polynomial literally.
    """
    n = len(rows)
    h = [list(r) for r in rows]
    zero = _zero_like(rows)
    tol = backend_tol(zero.exact)
    for m in range(1, n - 1):
        p = _pivot_index([h[i][m - 1] for i in range(n)], m, tol)
        if p is None:
            continue
        if p != m:
            h[m], h[p] = h[p], h[m]
            for row in h:
                row[m], row[p] = row[p], row[m]
        pivot_row = h[m]
        inv = pivot_row[m - 1].inverse()
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv
            if not u:
                continue
            # negated once, so both updates are sums
            nu = -u
            row = h[i]
            row[m - 1] = zero  # what the update leaves there, less float rounding
            for j in range(m, n):
                y = pivot_row[j]
                if y:
                    row[j] = row[j] + nu * y
            for r in h:
                y = r[i]
                if y:
                    r[m] = r[m] + u * y
    # p_k = det(x I - H_k) over the leading k x k block of H:
    # p_k = (x - h[k-1][k-1]) p_(k-1) - sum_i h[i-1][k-1] t_i p_(i-1), with t_i
    # the product of the subdiagonal entries h[i][i-1] ... h[k-1][k-2]
    one = zero**0
    polys = [[one]]
    for k in range(1, n + 1):
        prev = polys[-1]
        nd = -h[k - 1][k - 1]
        out = [zero] + prev  # x p_(k-1)
        for e, c in enumerate(prev):
            out[e] = out[e] + nd * c
        t = one
        for i in range(k - 1, 0, -1):
            t = t * h[i][i - 1]
            if not t:
                break
            f = h[i - 1][k - 1]
            if f:
                nf = -(t * f)
                for e, c in enumerate(polys[i - 1]):
                    out[e] = out[e] + nf * c
        polys.append(out)
    return polys[-1]


def solve_in_span(vectors, target):
    """Write target as a combination of the given coefficient vectors.

    vectors and target are dicts mapping arbitrary hashable keys to Coeff.
    Returns (coeffs, residual_max_abs).  Pivots are taken in the vector
    columns only, so coeffs is the in-span part of target even when target
    leaves the span.  On exact input the residual is 0.0 exactly when every
    residual entry is literally zero: a nonzero entry whose float modulus
    rounds to 0.0 reads as the smallest positive float, one beyond float
    range as inf.
    """
    return _solve_columns(vectors, [target])[1][0]


def _solve_columns(vectors, targets):
    """solve_in_span for several targets by one elimination: the vector
    columns first, then one column per target.  Returns (rank of the vectors,
    [(coeffs, residual_max_abs) per target]).

    Only the rows of keys that some vector holds are eliminated, in key order.
    A key that no vector holds gives a row with no pivot, which would only
    move the others, so the pivots and each target's coeffs are those of
    solve_in_span on that target alone; its entry joins the residual.
    """
    held = {k for v in vectors for k in v}
    keys = sorted(held)
    zero = _zero_like([v.values() for v in (*vectors, *targets)])
    nv = len(vectors)
    rows = [[v.get(k, zero) for v in vectors] + [t.get(k, zero) for t in targets] for k in keys]
    work = [list(r) for r in rows]
    pivots = _eliminate(work, backend_tol(zero.exact), nv)
    solved = []
    for t, target in enumerate(targets):
        coeffs = [zero] * nv
        for r, c in pivots:
            coeffs[c] = work[r][nv + t]
        # residual against the original, unreduced system
        residual = 0.0
        for row in rows:
            acc = row[nv + t]
            for j in range(nv):
                acc = acc - row[j] * coeffs[j]
            residual = max(residual, _size(acc))
        for k in target.keys() - held:
            residual = max(residual, _size(target[k]))
        solved.append((coeffs, residual))
    return len(pivots), solved


def _size(c) -> float:
    """|c| as a float: a nonzero value whose modulus rounds to 0.0 reads as
    the smallest positive float, one beyond float range as inf."""
    try:
        return abs(c) or (math.ulp(0.0) if c else 0.0)
    except OverflowError:
        return math.inf


def rank(a) -> int:
    rows = [list(r) for r in a]
    if not rows:
        return 0
    return len(_eliminate(rows, backend_tol(_zero_like(rows).exact), len(rows[0])))


def nullspace(a):
    """Basis of the right nullspace of a (rows x cols), as coordinate vectors."""
    nrows = len(a)
    if nrows == 0:
        return []
    ncols = len(a[0])
    zero = _zero_like(a)
    rows = [list(r) for r in a]
    pivots = _eliminate(rows, backend_tol(zero.exact), ncols)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [zero] * ncols
        v[fc] = zero**0
        for r, c in pivots:
            v[c] = -rows[r][fc]
        basis.append(v)
    return basis

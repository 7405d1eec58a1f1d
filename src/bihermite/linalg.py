"""Small dense linear algebra over Coeff matrices.

Everything here runs on lists of lists of Coeff and works for both scalar
backends: a pivot is a nonzero entry, on float input (mat_inverse aside) one
above FLOAT_TOL.  A matrix is on the float backend when any entry is a float;
a zero or one that lands in a result is taken from an entry, so results are
on the input's backend.  One elimination (_eliminate) serves matrix inverses,
span solves, ranks and nullspaces; one similarity reduction (charpoly) gives
the characteristic polynomials that the eigenvalue-structure check and the
Killing-form test of the Lie-algebra classification read.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .coeffs import ONE, ZERO, Coeff, _sum_products, backend_tol

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
    """The product a b, each entry one _sum_products call over its row and
    column: exact entries are reduced once, float ones take the bits of the
    chain a[i][0] b[0][j] + a[i][1] b[1][j] + ..."""
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
    # each row is scaled by its pivot's inverse, so the identity half ends on a's backend
    rows = [list(row) + unit for row, unit in zip(a, identity_matrix(n))]
    # first nonzero pivot on both backends: a largest-pivot search would move
    # float results, such as which `verify repmat --backend float` seeds fail
    pivots = _eliminate(rows, 0.0, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rows]


def charpoly(rows) -> list:
    """Coefficients of det(x I - A), lowest degree first and monic.

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

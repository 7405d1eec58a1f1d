"""Small dense linear algebra over Coeff matrices.

Everything here runs on lists of lists of Coeff and works for both scalar
backends: with exact coefficients a zero pivot is a literal zero, with float
coefficients callers pass a pivot tolerance.  Used for matrix inverses, for
expressing commutators in the span of a generator set, and for nullspaces
and determinants in the Lie-algebra classification.
"""

from __future__ import annotations

import math

from .coeffs import Coeff

__all__ = [
    "identity_matrix",
    "mat_mul",
    "mat_inverse",
    "solve_in_span",
    "nullspace",
    "rank",
    "det",
]


def _zero(exact: bool) -> Coeff:
    return Coeff(0, exact=exact)


def _one(exact: bool) -> Coeff:
    return Coeff(1, exact=exact)


def _is_exact(rows) -> bool:
    return all(c.exact for row in rows for c in row)


def identity_matrix(n: int, exact=True):
    return [[_one(exact) if i == j else _zero(exact) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = a[i][0] * b[0][j]
            for k in range(1, m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


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


def _eliminate(rows, tol):
    """In-place forward elimination; returns list of (row, col) pivots."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
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
            if (tol == 0.0 and f) or (tol > 0.0 and abs(f) > 0.0):
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def mat_inverse(a, tol: float = 0.0):
    n = len(a)
    exact = _is_exact(a)
    rows = [list(a[i]) + list(identity_matrix(n, exact)[i]) for i in range(n)]
    pivots = _eliminate(rows, tol)
    if len(pivots) < n or any(c != r for r, c in pivots):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rows]


def det(a) -> Coeff:
    """Determinant by elimination with exact division."""
    n = len(a)
    exact = _is_exact(a)
    rows = [list(r) for r in a]
    result = _one(exact)
    for c in range(n):
        p = None
        for i in range(c, n):
            if rows[i][c]:
                p = i
                break
        if p is None:
            return _zero(exact)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            result = -result
        result = result * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            f = rows[i][c] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def solve_in_span(vectors, target, tol: float = 0.0):
    """Write target as a combination of the given coefficient vectors.

    vectors and target are dicts mapping arbitrary hashable keys to Coeff.
    Returns (coeffs, residual_max_abs).  On exact input the residual is 0.0
    exactly when every residual entry is literally zero: a nonzero entry whose
    float modulus rounds to 0.0 reads as the smallest positive float.
    """
    keys = set(target)
    for v in vectors:
        keys |= set(v)
    keys = sorted(keys)
    exact = all(c.exact for v in vectors for c in v.values()) and all(
        c.exact for c in target.values()
    )
    zero = _zero(exact)
    nv = len(vectors)
    rows = []
    for key in keys:
        row = [v.get(key, zero) for v in vectors]
        row.append(target.get(key, zero))
        rows.append(row)
    work = [list(r) for r in rows]
    pivots = _eliminate(work, tol)
    coeffs = [zero] * nv
    for r, c in pivots:
        if c < nv:
            coeffs[c] = work[r][nv]
    # residual against the original, unreduced system
    residual = 0.0
    for row in rows:
        acc = row[nv]
        for j in range(nv):
            acc = acc - row[j] * coeffs[j]
        residual = max(residual, abs(acc) or (math.ulp(0.0) if acc else 0.0))
    return coeffs, residual


def rank(a, tol: float = 0.0) -> int:
    rows = [list(r) for r in a]
    if not rows:
        return 0
    return len(_eliminate(rows, tol))


def nullspace(a, tol: float = 0.0):
    """Basis of the right nullspace of a (rows x cols), as coordinate vectors."""
    nrows = len(a)
    if nrows == 0:
        return []
    ncols = len(a[0])
    exact = _is_exact(a)
    rows = [list(r) for r in a]
    pivots = _eliminate(rows, tol)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [_zero(exact)] * ncols
        v[fc] = _one(exact)
        for r, c in pivots:
            v[c] = -rows[r][fc]
        basis.append(v)
    return basis

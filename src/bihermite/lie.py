"""Bilinear generator algebras: structure constants, basis changes, and
isomorphism-class identification.

Four bilinears in the (deformed) ladder operators close under commutation.
In the split basis {X1, X2, X3, Y} the brackets are

    [X1, X2] = X3,  [X2, X3] = (1 - theta^2) X1,  [X3, X1] = (1 - theta^2) X2,

with Y central.  For 0 < theta < 1 rescaling by 1/sqrt(1 - theta^2) (and
1/(1 - theta^2) on X3) restores the standard su(2) constants; at theta = 1
the X brackets degenerate to a Heisenberg algebra, which only the float
backend reaches since that point needs alpha^2 = 1/2.

Structure constants are computed by exact linear algebra on the operators'
coefficient vectors, never assumed: every commutator is solved for in the
span of the basis and must leave zero residual.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .coeffs import FLOAT_TOL, ZERO, Coeff, I, backend_tol, close, rational_sqrt
from .deform import AlphaPoint, alpha_matrix, deformed_lowering, deformed_raising
from .linalg import _solve_columns, _zero_like, charpoly, mat_mul, nullspace, rank
from .report import Report, Tally
from .weyl import WeylOp, commutator

__all__ = [
    "LieBasisSet",
    "StructureConstants",
    "bilinear_generators",
    "basis_change",
    "rescale",
    "structure_constants",
    "theta_one_limit_table",
    "classify",
    "lie_report",
]


class LieBasisSet:
    """Ordered named generators with the deformation scale they were built at."""

    __slots__ = ("names", "ops", "theta")

    def __init__(self, names: tuple, ops: tuple, theta: Fraction | float):
        self.names, self.ops, self.theta = names, ops, theta


def _bilinears(a1, a2, ad1, ad2) -> tuple:
    """J1..J4 of a ladder quadruple: the angular-momentum set plus the total
    number, with 1/2 and -i/2 on the ladders' backend."""
    if _zero_like([a1.terms.values()]).exact:
        half, neg_i_half = Fraction(1, 2), Coeff(0, Fraction(-1, 2))
    else:
        half, neg_i_half = 0.5, complex(0.0, -0.5)
    return (
        (ad1 * a2 + ad2 * a1) * half,
        (ad1 * a2 - ad2 * a1) * neg_i_half,
        (ad1 * a1 - ad2 * a2) * half,
        (ad1 * a1 + ad2 * a2) * half,
    )


def bilinear_generators(point: AlphaPoint | None = None) -> LieBasisSet:
    """The J1..J4 bilinears of the deformed ladders at an alpha point, on the
    point's backend, or of the bare ladders, exactly, at theta = 0."""
    if point is None:
        ladders = (WeylOp.a(1), WeylOp.a(2), WeylOp.adag(1), WeylOp.adag(2))
        theta = Fraction(0)
    else:
        g = alpha_matrix(point)
        ladders = (*deformed_lowering(g), *deformed_raising(g))
        theta = point.theta
    return LieBasisSet(("J1", "J2", "J3", "J4"), _bilinears(*ladders), theta)


def basis_change(jbasis: LieBasisSet) -> LieBasisSet:
    """Split into commuting parts: X1 = iJ1, X2 = iJ3, X3 = i(J2 + theta J4),
    Y = theta J2 + J4."""
    j1, j2, j3, j4 = jbasis.ops
    th = jbasis.theta
    i = complex(0.0, 1.0) if isinstance(th, float) else I  # on theta's backend, as in rescale
    x1 = j1 * i
    x2 = j3 * i
    x3 = (j2 + j4 * th) * i
    y = j2 * th + j4
    return LieBasisSet(("X1", "X2", "X3", "Y"), (x1, x2, x3, y), th)


def rescale(xbasis: LieBasisSet) -> LieBasisSet:
    """Normalize the X brackets back to su(2) constants.

    With c = 1 - theta^2 the scaling is Z1 = X1/sqrt(c), Z2 = X2/sqrt(c),
    Z3 = X3/c; it is the unique positive diagonal rescaling making
    [Zi, Zj] = eps_ijk Zk, and it degenerates at theta = 1.
    """
    th = xbasis.theta
    c = 1 - th * th
    if not c:
        raise ValueError("rescaling singular at theta = 1")
    if isinstance(th, float):
        inv_s, inv_c = Coeff.from_complex(c**-0.5), Coeff.from_complex(1.0 / c)
    else:
        s = rational_sqrt(c)
        if s is None:
            raise ValueError(
                f"sqrt(1 - theta^2) is irrational for theta = {th}; use the float backend"
            )
        inv_s, inv_c = Coeff(Fraction(1) / s), Coeff(Fraction(1) / c)
    x1, x2, x3, y = xbasis.ops
    return LieBasisSet(
        ("Z1", "Z2", "Z3", "Y"),
        (x1 * inv_s, x2 * inv_s, x3 * inv_c, y),
        th,
    )


class StructureConstants:
    """Antisymmetric bracket table over an ordered generator list.

    table[(i, j)] (i < j) holds the coordinates of [g_i, g_j] in the basis;
    residuals record how much of each bracket fell outside the span (always
    exactly zero on the exact backend when the set closes).
    """

    __slots__ = ("names", "table", "residuals")

    def __init__(self, names: tuple, table: dict, residuals: dict):
        self.names, self.table, self.residuals = names, table, residuals

    @property
    def exact(self) -> bool:
        return all(c.exact for v in self.table.values() for c in v)

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def closed(self) -> bool:
        tol = backend_tol(self.exact)
        return all(r <= tol for r in self.residuals.values())

    def bracket(self, i: int, j: int):
        """Coordinates of [g_i, g_j], using antisymmetry below the diagonal."""
        if i == j:
            return [ZERO] * self.dim
        if i < j:
            return list(self.table[(i, j)])
        return [-c for c in self.table[(j, i)]]

    def jacobi_ok(self) -> bool:
        """[[g_i, g_j], g_k] + cyclic = 0 for every triple of generators.

        bracket() is antisymmetric, so the Jacobiator is totally antisymmetric
        and vanishes on repeated indices: the triples i < j < k decide it.
        Zero structure constants contribute no products.  The exact check is
        literal.  On float each entry, a sum of products of two constants, is
        cut at FLOAT_TOL times the largest |c|^2, the scale of its rounding.
        """
        n = self.dim
        nonzero = [
            [[(m, c) for m, c in enumerate(self.bracket(a, b)) if c] for b in range(n)]
            for a in range(n)
        ]
        constants = [c for row in nonzero for pairs in row for _, c in pairs]
        cut = 0.0 if self.exact else FLOAT_TOL * max(map(abs, constants), default=0.0) ** 2
        zero = _zero_like([constants])
        for i, j, k in combinations(range(n), 3):
            jac = [zero] * n
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                for m, c in nonzero[a][b]:
                    for l, e in nonzero[m][d]:
                        jac[l] = jac[l] + c * e
            if any(x and (self.exact or abs(x) > cut) for x in jac):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "basis": list(self.names),
            "brackets": [
                {
                    "i": i,
                    "j": j,
                    "coeffs": [c.to_json_value() for c in self.table[(i, j)]],
                    "residual_norm": self.residuals[(i, j)],
                }
                for (i, j) in sorted(self.table)
            ],
        }


def structure_constants(basis: LieBasisSet) -> StructureConstants:
    """Expand every pairwise commutator in the span of the basis, all of them
    by one elimination whose pivots also give the rank of the basis.

    Raises if the generators are linearly dependent; a nonzero residual
    (bracket escaping the span) is recorded, not raised.
    """
    n = len(basis.ops)
    pairs = list(combinations(range(n), 2))
    brackets = [commutator(basis.ops[i], basis.ops[j]).terms for i, j in pairs]
    found, solved = _solve_columns([op.terms for op in basis.ops], brackets)
    if found < n:
        raise ValueError("generators are linearly dependent")
    table = {pair: coeffs for pair, (coeffs, _) in zip(pairs, solved)}
    residuals = {pair: residual for pair, (_, residual) in zip(pairs, solved)}
    return StructureConstants(basis.names, table, residuals)


def theta_one_limit_table(xbasis: LieBasisSet) -> StructureConstants:
    """Limiting bracket table of the split basis at theta = 1.

    At theta = 1 (alpha^2 = 1/2) g is singular and the deformed ladders
    collapse to one mode, so all four operators X1, X2, X3 and Y vanish
    identically (up to rounding on float): the generators are not
    independent and the span solve is ill posed.  This checks the limiting
    relations, [X1, X2] = X3 with every other pair commuting, as operator
    identities, records their numerical defects as residuals, and returns the
    limit table (the split-basis constants with 1 - theta^2 = 0).  Both sides
    of every relation are zero there, so the residuals only confirm the
    degeneration; the table is the limit of the generic constants.
    """
    x1, x2, x3, y = xbasis.ops
    zero_op = WeylOp.zero()
    one_c = Coeff.lift(xbasis.theta) ** 0  # the table is printed on theta's backend
    zero_c = one_c * 0
    claims = {
        (0, 1): ([zero_c, zero_c, one_c, zero_c], x3),
        (0, 2): ([zero_c] * 4, zero_op),
        (1, 2): ([zero_c] * 4, zero_op),
        (0, 3): ([zero_c] * 4, zero_op),
        (1, 3): ([zero_c] * 4, zero_op),
        (2, 3): ([zero_c] * 4, zero_op),
    }
    table, residuals = {}, {}
    for (i, j), (coeffs, rhs) in claims.items():
        defect = commutator(xbasis.ops[i], xbasis.ops[j]) - rhs
        table[(i, j)] = coeffs
        residuals[(i, j)] = defect.max_abs()
    return StructureConstants(xbasis.names, table, residuals)


def _unit_scaled(rows: list) -> list:
    """The real matrix divided by its largest |entry| (unchanged when zero).
    A positive factor keeps every sign the classifier reads, and a float cut
    against FLOAT_TOL then measures against the entries' own size."""
    top = max((x for row in rows for x in row), key=abs)
    top = top if top.real_sign() >= 0 else -top
    return [[x / top for x in row] for row in rows] if top else rows


def _realified_table(sc: StructureConstants):
    """Real structure constants scaled to largest |c| = 1, multiplying the
    basis by i when every bracket coefficient is purely imaginary (on float,
    within FLOAT_TOL; the rest is dropped); None when the table mixes the two.
    The positive scale is an isomorphism, so the float rank cuts below do not
    depend on the size of the constants."""
    coeffs = [c for v in sc.table.values() for c in v]
    exact = sc.exact
    def real_part_small(c):
        return (not c.re and not c.re2) if exact else abs(c.re) <= FLOAT_TOL
    def imag_part_small(c):
        return (not c.im and not c.im2) if exact else abs(c.im) <= FLOAT_TOL
    if all(imag_part_small(c) for c in coeffs):
        rotate = False
    elif all(real_part_small(c) for c in coeffs):
        rotate = True
    else:
        return None
    def real(c):
        # c or i c, real; a float keeps the real part, which is -im for i c
        if exact:
            return c * I if rotate else c
        return Coeff.from_complex(-c.im if rotate else c.re)
    n = sc.dim
    planes = _unit_scaled([[real(x) for x in sc.bracket(i, j)] for i in range(n) for j in range(n)])
    return [planes[i * n : (i + 1) * n] for i in range(n)]


def classify(sc: StructureConstants) -> str:
    """Identify the algebra from its table: 'su2_plus_u1', 'heisenberg_plus_u1'
    or 'unknown'.

    Tests used: dimension of the derived algebra and of the center, and for
    the three-dimensional derived case negative definiteness of the Killing
    form restricted to it (the compact signature).
    """
    if not sc.closed or not sc.jacobi_ok():
        raise ValueError("structure-constant table is not a closed Lie algebra")
    return _classify(sc)


def _classify(sc: StructureConstants) -> str:
    """classify() on a table already known to close and satisfy Jacobi."""
    c = _realified_table(sc)
    if c is None:
        return "unknown"
    n = sc.dim

    bracket_rows = [c[i][j] for i in range(n) for j in range(i + 1, n)]
    derived_dim = rank(bracket_rows)

    # center: x_i with sum_i x_i c[i][j] = 0 for all j (all components)
    adj_rows = [[c[i][j][l] for i in range(n)] for j in range(n) for l in range(n)]
    center = nullspace(adj_rows)
    center_dim = len(center)

    if derived_dim == 3 and center_dim == 1 and n == 4:
        if _killing_negative_definite(c, bracket_rows):
            return "su2_plus_u1"
        return "unknown"
    if derived_dim == 1 and center_dim == 2 and n == 4:
        # the derived line must itself be central; pick the dominant bracket
        # row so float noise rows cannot be mistaken for it
        derived_vec = max(bracket_rows, key=lambda r: max((abs(x) for x in r), default=0.0))
        combined = [list(v) for v in center] + [list(derived_vec)]
        if rank(combined) == center_dim:
            return "heisenberg_plus_u1"
        return "unknown"
    return "unknown"


def _killing_negative_definite(c, bracket_rows) -> bool:
    n = len(c)
    zero = _zero_like(c[0])
    killing = [
        [sum((c[a][m][l] * c[b][l][m] for m in range(n) for l in range(n)), zero) for b in range(n)]
        for a in range(n)
    ]
    # basis of the derived subspace, each row scaled to largest entry 1
    basis = []
    for r in bracket_rows:
        if rank(basis + [r]) > len(basis):
            basis.extend(_unit_scaled([r]))
    restricted = mat_mul(mat_mul(basis, killing), [list(col) for col in zip(*basis)])
    # K is real symmetric, so det(x I - K) has real roots: it is negative
    # definite exactly when every coefficient is positive.  The table and the
    # basis rows have largest entry 1, so a K within FLOAT_TOL of zero is the
    # zero form.  Otherwise K is scaled to largest entry 1 and, going down
    # from the leading 1, a coefficient counts as positive only when its ratio
    # to the one above is positive and not close to zero.  With eigenvalues
    # -mu_i that ratio is e_k(mu) / e_(k-1)(mu), at least mu_min / m and at
    # k = m at most mu_min: the float cut is on the smallest eigenvalue
    # against the largest entry, not on the size of the constants
    if all(close(k, zero) for row in restricted for k in row):
        return False
    poly = charpoly(_unit_scaled(restricted))[::-1]
    return all(k.real_sign() > 0 and not close(k / above, zero) for above, k in zip(poly, poly[1:]))


def lie_report(point: AlphaPoint | None) -> Report:
    """Full pipeline at one parameter point: bilinears, split basis, rescaled
    basis where it exists, plus closure, Jacobi, and classification.

    At theta = 1 (float backend only) the generators degenerate, so the suite
    verifies the limiting relations instead and classifies the limit table.
    """
    jbasis = bilinear_generators(point)
    theta = jbasis.theta
    at_limit = close(theta, 1.0 if isinstance(theta, float) else 1)  # 1 on theta's backend
    xbasis = basis_change(jbasis)
    stages = {}
    if at_limit:
        stages["X"] = theta_one_limit_table(xbasis)
    else:
        stages["J"] = structure_constants(jbasis)
        stages["X"] = structure_constants(xbasis)
        stages["Z"] = structure_constants(rescale(xbasis))
    final = "X" if at_limit else "Z"
    t = Tally()
    for label, sc in stages.items():
        closed = t.check(sc.closed, f"{label}-basis table does not close")
        jacobi = t.check(sc.jacobi_ok(), f"{label}-basis table violates the Jacobi identity")
        if label == final:
            # these checks are classify's guard, so they are not run twice
            final_class = _classify(sc) if closed and jacobi else "unknown"
    expected = "heisenberg_plus_u1" if at_limit else "su2_plus_u1"
    t.check(final_class == expected, f"classified as {final_class}, expected {expected}")
    payload = {
        "theta": str(theta),
        "class": final_class,
        "degenerate_limit": at_limit,
        "problems": t.failures,
        "tables": {label: sc.to_json() for label, sc in stages.items()},
    }
    payload["tables"][final]["class"] = final_class
    return t.report(
        f"bilinear-algebra suite at theta = {theta}",
        payload,
        f" (class {final_class})",
    )

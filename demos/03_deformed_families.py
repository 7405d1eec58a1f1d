# Deforming the Hermite family with an invertible 2x2 matrix.
#
# Replacing the two raising operators by g-linear combinations deforms the
# whole family.  Each total degree L is an invariant (L+1)-dimensional level,
# and the action on it is the closed-form matrix M(g, L): column k holds the
# exact coordinates of the deformed H[k, L-k] over the undeformed level basis.

from fractions import Fraction as F

from bihermite import (
    GL2,
    AlphaPoint,
    alpha_matrix,
    deformed_generating_series,
    deformed_hermite,
    eigenvalue_structure_check,
    generating_series_complex,
    rep_laws_check,
    rep_matrix,
)

point = AlphaPoint.make(F(3, 5))
g = alpha_matrix(point)
print("hermitian deformation matrix at alpha = 3/5:")
for row in ((g.g11, g.g12), (g.g21, g.g22)):
    print("  [", ", ".join(str(c) for c in row), "]")
print(f"  determinant = {g.det}")

print()
print("deformed polynomials (scaled form):")
for k, l in [(1, 0), (0, 1), (1, 1), (2, 1)]:
    print(f"  Hg[{k},{l}] = {deformed_hermite(g, k, l).pretty()}")

print()
L = 2
M = rep_matrix(g, L)
print(f"level-{L} matrix M(g, {L}):")
for row in M.entries:
    print("  [", ", ".join(str(c) for c in row), "]")
# the action law of rep_laws_check compares M(g, L) with the deformed family
# raised by the operators, polynomial by polynomial
rep = rep_laws_check(g, g, L)
print(f"column convention certified: {rep.ok}")
print("  (column k of M(g,L) = coordinates of deformed H[k, L-k] over [H[r, L-r]]_r; "
      "position j of the conventional level list [(L,0), ..., (0,L)] corresponds to "
      "matrix index L-j)")

print()
print("the deformed generating function is the plain one composed with g:")
lhs = generating_series_complex(5).substitute_linear(g.g11, g.g12, g.g21, g.g22)
print(f"  series substitution identity to order 5: {lhs == deformed_generating_series(g, 5)}")

print()
print("eigenvalues of M(g, L) are products of the eigenvalues of g:")
diag = GL2.diagonal(2, 3)
rep = eigenvalue_structure_check(diag, 3)
print(f"  diag(2,3), L<=3, {rep.payload['mode']}: {rep.status}")
rep = eigenvalue_structure_check(g, 3)
print(f"  alpha matrix, L<=3, {rep.payload['mode']}: {rep.status}")

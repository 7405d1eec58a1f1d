# The dual family and exact biorthogonality.
#
# A deformed family is generally not orthogonal, but it has an exact dual:
# the family deformed by the inverse conjugate-transpose matrix.  Pairings
# between the two reproduce Kronecker deltas with the usual factorial
# normalizers, including across different levels.

from fractions import Fraction as F

from bihermite import (
    GL2,
    AlphaPoint,
    alpha_matrix,
    biorthogonality_check,
    deformed_hermite,
    dual_family,
    inner_product,
    rep_laws_check,
)

point = AlphaPoint.make(F(3, 5))
g = alpha_matrix(point)

print("the deformed family is not orthogonal on its own:")
h10, h01 = deformed_hermite(g, 1, 0), deformed_hermite(g, 0, 1)
print(f"  <Hg[1,0], Hg[0,1]> = {inner_product(h10, h01)}   (nonzero)")

L = 1
fam = dual_family(g, L)
indices = [(L - j, j) for j in range(L + 1)]  # the order of fam.polys
print()
print(f"dual matrix (inverse conjugate transpose), level {L}:")
for (m, n), p in zip(indices, fam.polys):
    print(f"  Hdual[{m},{n}] = {p.pretty()}")
print(f"  biorthogonal to the family at its level (exact pairing block): {fam.consistent}")

print()
print("pairings against the dual are exact deltas:")
for (m, n), dual_p in zip(indices, fam.polys):
    for (k, l) in indices:
        val = inner_product(dual_p, deformed_hermite(g, k, l))
        print(f"  <Hdual[{m},{n}], Hg[{k},{l}]> = {val}")

rep = biorthogonality_check(g, 4)
print()
print(f"full check through level 4 ({rep.summary})")

print()
print("sign-flipped hermitian partner: the product of level matrices is a")
print("power of the determinant, so the scaled pairing constants are det^L:")
partner, adjugate = GL2(g.g11, -g.g12, -g.g21, g.g22), GL2(g.g22, -g.g12, -g.g21, g.g11)
print(f"  the partner is adj(g) = [[g22, -g12], [-g21, g11]]: {partner == adjugate}")
print(f"  M(adj g, L) M(g, L) = det^L I for L <= 4: {rep_laws_check(g, g, 4).ok}")
for L in range(5):
    print(f"  L = {L}: kappa = {g.det**L}")

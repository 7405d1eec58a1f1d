# Bilinear generator algebras and their classification.
#
# Four bilinears in the deformed ladder operators close under commutation.
# Solving each bracket in the span of the generators (exact linear algebra on
# coefficient vectors) gives structure constants; a basis change splits off a
# central direction, and a rescaling restores the standard su(2) table for
# every deformation strength below the maximum.  At the maximum the algebra
# degenerates and the limiting table is a Heisenberg algebra instead.

from fractions import Fraction as F

from bihermite import (
    AlphaPoint,
    basis_change,
    bilinear_generators,
    classify,
    lie_report,
    rescale,
    structure_constants,
    theta_one_limit_table,
)


def show(sc):
    for (i, j) in sorted(sc.table):
        coords = ", ".join(
            f"({c}) {name}" for c, name in zip(sc.table[(i, j)], sc.names) if c
        )
        print(f"  [{sc.names[i]}, {sc.names[j]}] = {coords or '0'}")


point = AlphaPoint.make(F(3, 5))
jb = bilinear_generators(point)
print(f"deformed bilinears at alpha = 3/5 (theta = {jb.theta}):")
show(structure_constants(jb))

xb = basis_change(jb)
print()
print("split basis (X1, X2, X3 | Y central); note the factor 1 - theta^2:")
show(structure_constants(xb))

zb = rescale(xb)
scz = structure_constants(zb)
print()
print("rescaled basis restores the su(2) constants exactly:")
show(scz)
print(f"  classification: {classify(scz)}")

print()
print("at the maximal deformation theta = 1 (alpha^2 = 1/2, float backend)")
print("two generators vanish identically; the limiting table is Heisenberg:")
pt1 = AlphaPoint.make(0.5**0.5)
limit = theta_one_limit_table(basis_change(bilinear_generators(pt1)))
print(f"  largest residual of the limiting relations: "
      f"{max(limit.residuals.values()):.2e}")
print(f"  classification: {classify(limit)}")

print()
rep = lie_report(point)
print(f"one-call pipeline: {rep.summary}")
rep = lie_report(pt1)
print(f"one-call pipeline: {rep.summary}")

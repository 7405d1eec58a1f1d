# Complex Hermite polynomials three ways.
#
# The library builds the two-index family H[m,n](z, zbar) by an explicit
# binomial sum, by a Rodrigues-style recurrence, and by applying raising
# operators to the constant 1.  All three agree exactly, coefficient by
# coefficient, because every scalar is an exact rational.

from bihermite import (
    hermite_operator,
    hermite_rodrigues,
    hermite_sum,
    inner_product,
    normalizer_sq,
    real_hermite,
    real_inner_product,
)

print("The first few polynomials, from the explicit sum:")
for m, n in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]:
    print(f"  H[{m},{n}] = {hermite_sum(m, n).pretty()}")

print()
print("Route agreement (sum / Rodrigues / operator), m+n <= 6:")
agree = all(
    hermite_sum(m, t - m) == hermite_rodrigues(m, t - m) == hermite_operator(m, t - m)
    for t in range(7)
    for m in range(t + 1)
)
print(f"  all equal exactly: {agree}")

print()
print("Orthogonality under the Gaussian measure exp(-|z|^2)/pi:")
print("  <H[m,n], H[k,l]> = m! n! when (m,n) == (k,l), else 0")
for pair in [((2, 1), (2, 1)), ((2, 1), (1, 2)), ((3, 0), (3, 0))]:
    (m, n), (k, l) = pair
    val = inner_product(hermite_sum(m, n), hermite_sum(k, l))
    print(f"  <H[{m},{n}], H[{k},{l}]> = {val}   (m! n! = {normalizer_sq(m, n)})")

print()
print("The normalized family is h[m,n] = H[m,n]/sqrt(m! n!); the library")
print("keeps the integer-coefficient H and reports the normalizer instead, so")
print("no irrational number ever enters the arithmetic.")

print()
print("Real Hermite polynomials by the three-term recurrence:")
for n in range(5):
    print(f"  H_{n} = {real_hermite(n).pretty()}")
v = real_inner_product(real_hermite(3), real_hermite(3))
print(f"  weighted norm: integral H_3^2 exp(-x^2) dx = ({v}) * sqrt(pi)^1   (expected 2^3 3! = 48)")

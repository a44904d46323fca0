"""A non-Koszul example: k<x>/(x^3).

The trivial module over this algebra has an infinite periodic resolution
(multiplication by x and by x^2 alternate), so the Ext-algebra has classes in
every cohomological degree and is generated in degrees 1 and 2, not 1.  The
factorization theorem still applies to its skew extensions.

Run:  python demos/cube_relation.py
"""

from fractions import Fraction

from extalg import (
    ExtAlgebra,
    GradedAlgebra,
    ext_product_table,
    frobenius_check,
    is_finite_certified,
    low_degree_generation_check,
    minimal_resolution,
    parse_presentation,
    verify_ext_factorization,
)

pres = parse_presentation("field Q\ngens x:1\nrel x^3\n")
N, D = 4, 8
A = GradedAlgebra(pres, D)
P = minimal_resolution(A, N, D)

print("resolution of k over k<x>/(x^3): generator degrees per position")
for n in range(N + 1):
    print("  position %2d: %s" % (-n, P.gens[-n]))
print("differential entries:",
      [A.free.format_poly(P.diffs[-j][0][0]) for j in range(1, N + 1)])

E = ExtAlgebra(A, P, N, D)
table = ext_product_table(E)
u1, u2 = E.basis_class(1, 1, 0), E.basis_class(2, 3, 0)
print("Ext dims:", E.dimension_table())
print("u1*u1 =", E.multiply(u1, u1).vector, " u2*u1 =", E.multiply(u2, u1).vector,
      " u2*u2 =", E.multiply(u2, u2).vector)

fin = is_finite_certified(P, A, N, D)
print("finite-dimensional certified:", fin.finite, "(%s)" % fin.reason)
print("frobenius verdict:", frobenius_check(table, fin).status)
for pgen in (1, 2):
    v = low_degree_generation_check(table, pgen, N, D)
    print("generated by degrees 1..%d within (%d, %d):" % (pgen, N, D), v.generated,
          ("witness %s" % (v.witness,)) if v.witness else "")

print("\nskew extension by x -> 7x, z of degree 1:")
report = verify_ext_factorization(pres, {0: {(0,): Fraction(7)}}, 1, N, D)
for c in report.checks:
    print("  %s %-12s" % ("PASS" if c.passed else "FAIL", c.key))
print("E(B) dims:", report.data["ext_B_dims"])
print("tau blocks (powers of 7 track the internal degree):")
tau = report.objects["tau"]
for bd in sorted(tau.blocks):
    print("  bidegree %s: %s" % (bd, tau.dense(*bd)))
TB = report.objects["TB"]
print("E(B) is K_2 but not K_1:",
      not low_degree_generation_check(TB, 1, N, D).generated,
      low_degree_generation_check(TB, 2, N, D).generated)

"""Dynamical degrees of endomorphisms from pullback matrices.

The degree sequence d_p (spectral radius per codimension) is log-concave
for honest geometric input, and the entropy of the derived pullback is
log of its maximum; the polynomial degrees s_p refine the picture on the
plateau where the maximum is attained.
"""

import math

from catentropy import (
    EndoAction,
    ExactMatrix,
    degree_table,
    exterior_power,
    kuenneth_self_product,
    pullback_entropy_report,
    validate_geometric,
)

M = ExactMatrix.from_rows

print("Degree-2 power map on 3-space: pullback multiplies codim-p classes by 2^p")
power = EndoAction.from_matrices([M([[2**p]]) for p in range(4)])
table = degree_table(power)
print("  d_p =", table.d_p, "  plateau =", table.plateau)
rep = pullback_entropy_report(power)
print("  h_cat = %.6f (= 3 log 2 = %.6f), h_pol = %d"
      % (rep.h_cat, 3 * math.log(2), rep.h_pol))
print()

print("A parabolic surface automorphism: entropy 0, but quadratic volume growth.")
print("Build the middle-cohomology action as the second exterior power of a")
print("double shear on rank-4 degree-1 cohomology:")
shear2 = ExactMatrix.block_diag(M([[1, 1], [0, 1]]), M([[1, 1], [0, 1]]))
middle = exterior_power(shear2, 2)
ab = EndoAction.from_matrices([M([[1]]), middle, M([[1]])])
table = degree_table(ab)
print("  d_p =", table.d_p, "  s_p =", table.s_p)
rep = pullback_entropy_report(ab)
print("  h_cat = %g, h_pol = %d  (a size-3 Jordan block in codimension 1)"
      % (rep.h_cat, rep.h_pol))
print()

print("Self-product identities: degrees convolve multiplicatively and the")
print("polynomial degrees convolve additively over the plateau:")
res = kuenneth_self_product(table)
print("  product s_p =", res.table.s_p, " (middle entry 4 = 2 + 2)")
print("  mismatches:", (res.degree_mismatches + res.s_mismatches) or "none")
print()

print("Non-geometric data is flagged, never rejected:")
crafted = EndoAction.from_matrices([M([[1]]), M([[3]]), M([[2]]), M([[9]])])
for warning in validate_geometric(degree_table(crafted)):
    print("  warning:", warning)

"""Simple Lie algebras from Cartan data, with exact structure constants.

Walks through: root systems by closure, the extraspecial-pair sign
convention, the Killing form by ad-traces, the Casimir element, and
lifting a diagram automorphism (triality on D4).
"""

from fractions import Fraction as Q

from loopcybe import CartanType, build_root_system, chevalley_algebra
from loopcybe.chevalley import apply_map, automorphism_order, lift_diagram_automorphism
from loopcybe.linalg import kernel_basis

print("== root systems ==")
for label in ["A1", "A2", "G2", "B2", "D4"]:
    rs = build_root_system(CartanType.parse(label))
    print("%-3s %2d roots, highest root %s" % (label, len(rs.all_roots), rs.highest_root()))

print()
print("== sl2 in its Chevalley basis ==")
alg = chevalley_algebra("A1")
e, f, h = {0: Q(1)}, {1: Q(1)}, {2: Q(1)}
print("[e, f] =", alg.bracket(e, f), "  [h, e] =", alg.bracket(h, e))
print("kappa(h, h) =", alg.killing(h, h), "  kappa(e, f) =", alg.killing(e, f))
print("Casimir:", alg.casimir())
print("coroot of alpha (alpha(h) = 2):", alg.coroot((Q(2),)), " (h/4 since kappa(h,h) = 8)")

print()
print("== structure constants carry |N| = p + 1 ==")
alg2 = chevalley_algebra("G2")
# the table holds every signed pair; show a few with both roots positive
sample = [(k, n) for k, n in alg2.n_table.items() if min(k[0] + k[1]) >= 0][:4]
for (a, b), n in sample:
    print("N_{%s,%s} = %s (p = %d)" % (a, b, n, alg2.rs.p_value(a, b)))

print()
print("== triality on D4 ==")
alg4 = chevalley_algebra("D4")
cols = lift_diagram_automorphism(alg4, [2, 1, 3, 0])   # rotate the three outer nodes
print("order:", automorphism_order(alg4, cols))
dim = alg4.dim
m = [[cols[j].get(i, Q(0)) for j in range(dim)] for i in range(dim)]
fix = [[m[i][j] - (1 if i == j else 0) for j in range(dim)] for i in range(dim)]
print("fixed subalgebra dimension:", len(kernel_basis(fix, Q(0), Q(1))), "(the G2 inside D4)")

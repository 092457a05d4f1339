"""Regrading between weight vectors and the supported equivalence families.

Regrading to the principal grading turns every solution into a function
of the quotient x/y alone; the comparison of two basic solutions holds
term by term at the level of exact rational exponents.
"""

from fractions import Fraction as Q

from loopcybe import SigmaType, cybe, loop_algebra, r0
from loopcybe.bd import BDQuadruple, build_twist, canonical_t_h
from loopcybe.classify import act
from loopcybe.regrade import (apply_equivalence, exponent_identity,
                              loop_tensor_balanced, quotient_dependence,
                              regrade_element, regrade_loop_tensor, solve_mu)
from loopcybe.tensors import from_loop_tensor, skew, twist_residual

A1_STD = SigmaType.make("A1", [1, 0])
A1_COX = SigmaType.make("A1", [1, 1])
A2_STD = SigmaType.make("A2", [1, 0, 0])
A2_PRIN = SigmaType.make("A2", [1, 1, 1])

print("== the element mu and the exponent identity ==")
src, dst = loop_algebra(A1_STD), loop_algebra(A1_COX)
mu = solve_mu(src, dst)
print("mu =", mu, "with alpha_0(mu), alpha_1(mu) =",
      [sum(w * m for w, m in zip(src.node_weights[i], mu)) for i in range(2)])
rep = exponent_identity(src, dst)
print("sl2 (1,0) -> (1,1): all %d exponent terms match: %s" % (len(rep["terms"]), rep["ok"]))
rep = exponent_identity(loop_algebra(A2_STD), loop_algebra(A2_PRIN))
print("sl3 (1,0,0) -> (1,1,1): all %d exponent terms match: %s" % (len(rep["terms"]), rep["ok"]))

print()
print("== regrading and quotient dependence ==")
e = src.from_chev(0, {0: Q(1)})
print("G(e) for sl2 (1,0)->(1,1):", regrade_element(src, dst, e), " (e moves to degree 1)")
prin = loop_algebra(A2_PRIN)
print("r0 in the principal grading balanced (a function of x/y):",
      quotient_dependence(r0(prin)))
q = BDQuadruple.make(A2_STD, {1, 2}, {0, 1}, {1: 0, 2: 1},
                     canonical_t_h(A2_STD, {1, 2}, {0, 1}, {1: 0, 2: 1}))
t_pr = regrade_loop_tensor(loop_algebra(A2_STD), prin, build_twist(q))
print("regraded twist balanced:", loop_tensor_balanced(t_pr))
r_pr = r0(prin) + from_loop_tensor(prin, t_pr)
print("regraded solution still solves the Yang-Baxter equation:", not cybe(r_pr))

print()
print("== equivalence families acting on solutions ==")
L = loop_algebra(A1_STD)
r = r0(L)
n = L.from_chev(1, {0: Q(1)})
moved = apply_equivalence({"kind": "exp_ad", "element": n}, r)
extra = (moved - r).poly
print("exp(ad z e): produces the twist", extra)
print("   twist condition holds:", not twist_residual(L, extra))
print("   still skew + solves CYBE:", skew(moved).is_zero() and not cybe(moved))

moved2 = apply_equivalence({"kind": "rescale", "a": Q(5, 3)}, r)
print("rescale z -> 5/3 z: r0 unchanged?", (moved2 - r).is_zero(),
      " (r0 depends only on x/y when m = 1)")

L2 = loop_algebra(A2_STD)
r_q = r0(L2) + from_loop_tensor(L2, build_twist(q))
rot = (1, 2, 0)
moved3 = apply_equivalence({"kind": "diagram", "perm": rot}, r_q)
r_rot = r0(L2) + from_loop_tensor(L2, build_twist(act(rot, q)))
print("diagram rotation transports r_Q to r_{theta(Q)} exactly:",
      (moved3 - r_rot).is_zero())

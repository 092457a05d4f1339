"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance here is exact (the library is float-free); "zero" always
means identically zero as a sparse tensor over the rationals.

Criterion 6 asserts the census that the reachability rule supports
(A_n, C_n, B2-B3, D4-D5 good).  It departs from the classically reported
list at B4 and D6-D10, and certifies each departure inside the test with
a hand-built unreachable quadruple; the mathematical argument is recorded
in CHANGES.md and in the README section "The census discrepancy".
"""

import random
import time
from fractions import Fraction as Q

import pytest

import loopcybe.bd as bd
import loopcybe.classify as cl
import loopcybe.regrade as rg
from loopcybe.bd import (BDQuadruple, build_rq, build_twist, canonical_t_h,
                         gluing_check, manin_identity_sides, th_solution_space,
                         w0_samples, w_isotropy)
from loopcybe.loop import SigmaType, affine_diagram_data, loop_algebra
from loopcybe.tensors import (cobracket, cybe, from_loop_tensor, r0,
                              residue_operator, skew, t2_add, t2_scale,
                              twist_residual, wedge)

A1 = SigmaType.make("A1", [1, 0])
A2 = SigmaType.make("A2", [1, 0, 0])


def report(num: int, ok: bool, detail: str) -> None:
    print("criterion %02d [%s] %s" % (num, "PASS" if ok else "FAIL", detail))


def ten_quadruples():
    """Three A1^(1) and seven A2^(1) quadruples with canonical t_h.

    The A2 selection takes the first five (empty and singleton Gamma_1)
    plus the last two of the enumeration, which carry two-element
    Gamma_1 chains where the nilpotent maps have depth 2.
    """
    qs = cl.quadruples_with_canonical_t_h(A1)
    a2 = cl.quadruples_with_canonical_t_h(A2)
    qs += a2[:5] + a2[-2:]
    assert len(qs) == 10
    assert any(len(q.gamma1) == 2 for q in qs)
    return qs


def test_criterion_01_cybe_zero_basic_solutions():
    """cybe(r0) and skew(r0) vanish identically for the six pairs."""
    cases = [("A1", [1, 0], None), ("A1", [1, 1], None), ("A2", [1, 0, 0], None),
             ("A2", [1, 1, 1], None), ("B2", [1, 0, 0], None), ("A2", [1, 0], [1, 0])]
    start = time.time()
    ok = True
    for label, s, nu in cases:
        L = loop_algebra(SigmaType.make(label, s, nu))
        r = r0(L)
        ok = ok and not cybe(r) and skew(r).is_zero()
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    report(1, ok, "six (type, sigma) pairs symbolic in %.1fs" % elapsed)
    assert ok


def test_criterion_02_twist_validity_all_quadruples():
    """Every valid quadruple on A1^(1), A2^(1): both pipelines zero and equal."""
    start = time.time()
    count = 0
    ok = True
    for sigma in (A1, A2):
        for q in cl.quadruples_with_canonical_t_h(sigma):
            L = loop_algebra(sigma)
            t = build_twist(q)
            resid = twist_residual(L, t)
            full = cybe(r0(L) + from_loop_tensor(L, t))
            ok = ok and not resid and not full and resid == full
            count += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    report(2, ok, "%d quadruples, residual = cybe pipeline, %.1fs" % (count, elapsed))
    assert ok


def test_criterion_03_t_h_dimension():
    """Homogeneous solution space has dimension l(l-1)/2 on four diagrams."""
    ok = True
    checked = 0
    for sigma in (A1, A2, SigmaType.make("A3", [1, 0, 0, 0]),
                  SigmaType.make("C2", [1, 0, 0])):
        L = affine_diagram_data(sigma)
        nodes = len(L.node_weights)
        for g1, g2, gm in cl.enumerate_triples(L):
            space = th_solution_space(sigma, g1, g2, dict(gm))
            l = nodes - len(g1)
            ok = ok and space["dimension"] == l * (l - 1) // 2
            checked += 1
    report(3, ok, "%d condition-1-2 triples match l(l-1)/2" % checked)
    assert ok


def test_criterion_04_operator_agreement():
    """Closed-form R_Q equals the residue operator on degree <= 3 bases."""
    ok = True
    for q in ten_quadruples():
        L = loop_algebra(q.sigma)
        rq = build_rq(q)
        rt = residue_operator(L, build_twist(q))
        for f in L.basis_up_to(3):
            ok = ok and (rq(f) - rt(f)).is_zero()
    report(4, ok, "10 quadruples, closed form = residue formula, degree <= 3")
    assert ok


def test_criterion_05_isotropy_and_membership():
    """W is exactly isotropic on degree <= 3 pairs; gluing equation holds."""
    ok = True
    for q in ten_quadruples():
        rep = w_isotropy(q, d=3)
        ok = ok and rep["isotropy_ok"] and rep["membership_ok"] and rep["diagonal_ok"]
        ok = ok and gluing_check(q, d=3)
    report(5, ok, "10 quadruples, degree <= 3 pairs, exact zeros + gluing")
    assert ok


# The good-type list classically reported for the quasi-trigonometric
# question posed by Khoroshkin-Pop-Samsonov-Stolin (CMP 2008), with its
# reported bad types; this suite asserted it until criterion 6 was settled.
# Kept to name the departures, not as the truth.
REPORTED_GOOD = (["A%d" % r for r in range(1, 7)] + ["C2", "C3", "C4"]
                 + ["B2", "B3", "B4"] + ["D%d" % r for r in range(4, 11)])
REPORTED_BAD = ["B5", "D11", "G2", "F4", "E6", "E7", "E8"]

# What the reachability rule supports (argument in CHANGES.md).
CENSUS_GOOD = (["A%d" % r for r in range(1, 7)] + ["C2", "C3", "C4"]
               + ["B2", "B3", "D4", "D5"])
CENSUS_BAD = ["B4", "B5"] + ["D%d" % r for r in range(6, 12)] + ["G2", "F4", "E6", "E7", "E8"]
DEPARTURES = {"B4", "D6", "D7", "D8", "D9", "D10"}

# Affine Cartan matrices from Kac, "Infinite dimensional Lie algebras",
# Table Aff 1, with a_ij = <alpha_i^vee, alpha_j>, and the short nodes.
# Node labels agree with the library's; its affine_cartan stores
# 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), the transpose.
KAC_AFF1 = {
    "B4": ([[2, 0, -1, 0, 0],
            [0, 2, -1, 0, 0],
            [-1, -1, 2, -1, 0],
            [0, 0, -1, 2, -1],
            [0, 0, 0, -2, 2]], {4}),
    "D6": ([[2, 0, -1, 0, 0, 0, 0],
            [0, 2, -1, 0, 0, 0, 0],
            [-1, -1, 2, -1, 0, 0, 0],
            [0, 0, -1, 2, -1, 0, 0],
            [0, 0, 0, -1, 2, -1, -1],
            [0, 0, 0, 0, -1, 2, 0],
            [0, 0, 0, 0, -1, 0, 2]], set()),
}


def departure_witness(label: str) -> dict:
    """Hand-built gamma of an unreachable quadruple on B_n (n >= 4) or D_n (n >= 6).

    B_n: nodes 0 and 1 hang off node 2, so 0, 1, 3 are long and pairwise
    orthogonal; gamma: 0 -> 1 -> 3 escapes at 3.  D_n: the four leaves are
    pairwise orthogonal and node 3 is orthogonal to all of them once
    n >= 6; gamma: 0 -> 1 -> n-1 -> n -> 3.
    """
    n = int(label[1:])
    if label[0] == "B":
        return {0: 1, 1: 3}
    return {0: 1, 1: n - 1, n - 1: n, n: 3}


def certify_departure(label: str) -> list:
    """Names of the failed checks of the certificate that `label` is bad."""
    series, n = label[0], int(label[1:])
    sigma = SigmaType.make(label, [1] + [0] * n)
    gm = departure_witness(label)
    g1, g2 = set(gm), set(gm.values())
    q = BDQuadruple.make(sigma, g1, g2, gm, canonical_t_h(sigma, g1, g2, gm))
    L = affine_diagram_data(sigma)
    group = cl.loop_diagram_automorphisms(L)
    orbit0 = {perm[0] for perm in group}
    mark1 = {0, 1} if series == "B" else {0, 1, n - 1, n}
    checks = {
        "conditions 1-3": bd.validate(q)["valid"],
        "group order": len(group) == {"B": 2, "D": 8}[series],
        "orbit of node 0 = mark-1 nodes":
            orbit0 == mark1 == {i for i, a in enumerate(L.marks) if a == 1},
        "Gamma_1 contains the orbit": orbit0 <= g1,
        "classify agrees": cl.quasi_trig_reachable(L, g1) == (False, None),
    }
    if label in KAC_AFF1:
        kac, short = KAC_AFF1[label]
        nodes = range(n + 1)
        checks["Kac matrix is the transpose"] = \
            L.affine_cartan == [[kac[j][i] for j in nodes] for i in nodes]
        checks["marks span the Kac null space"] = \
            all(sum(kac[i][j] * L.marks[j] for j in nodes) == 0 for i in nodes)
        checks["Kac isometry"] = (
            all(kac[gm[i]][gm[j]] == kac[i][j] for i in g1 for j in g1)
            and all((i in short) == (gm[i] in short) for i in g1))
        checks["twist residual zero"] = \
            not twist_residual(loop_algebra(sigma), build_twist(q))
    return [name for name, passed in checks.items() if not passed]


def test_criterion_06_type_census():
    """Census: A1-A6, C2-C4, B2-B3, D4-D5 good; B4, B5, D6-D11, G2, F4,
    E6, E7, E8 bad.

    The departures from the reported list are exactly B4 and D6-D10, and
    each carries a hand-built certificate that does not read the census:
    a valid quadruple whose Gamma_1 contains the whole automorphism orbit
    of the affine node (see CHANGES.md and the README for the argument).
    """
    start = time.time()
    labels = CENSUS_GOOD + CENSUS_BAD
    rows = cl.type_census(labels, 11)
    verdicts = {"%s%d" % (r["type"], r["rank"]): r["good"] for r in rows}
    failures = []
    for label in labels:
        if verdicts[label] != (label in CENSUS_GOOD):
            failures.append("%s computed %s" % (label, "good" if verdicts[label] else "bad"))
    assert sorted(labels) == sorted(REPORTED_GOOD + REPORTED_BAD)
    departures = {label for label in labels if verdicts[label] != (label in REPORTED_GOOD)}
    if departures != DEPARTURES:
        failures.append("departures from the reported list: %s" % sorted(departures))
    for label in sorted(DEPARTURES):
        failed = certify_departure(label)
        if failed:
            failures.append("%s certificate fails: %s" % (label, ", ".join(failed)))
    elapsed = time.time() - start
    ok = not failures and elapsed < 600
    report(6, ok, "census + %d departure certificates in %.1fs%s" % (
        len(DEPARTURES), elapsed, "" if ok else "; " + "; ".join(failures)))
    assert ok, failures


def test_criterion_07_cobracket_ground_truth():
    """Generator values, co-skew, co-Jacobi, 1-cocycle residuals vanish."""
    ok = True
    for sigma in (A1, A2):
        L = loop_algebra(sigma)
        r = r0(L)
        for i, g in enumerate(L.generators()):
            ok = ok and cobracket(g["h"], r) == {}
            bii = L.coroot_gram[i][i]
            for key in ("plus", "minus"):
                want = t2_scale(wedge(L, g["h"], g[key]), Q(bii) / 4)
                ok = ok and cobracket(g[key], r) == want
    # residual identities on 20 random degree <= 2 inputs
    from test_oracles import alt_cyclic
    L = loop_algebra(A2)
    r = r0(L)
    basis = L.basis_up_to(2)
    rng = random.Random(20)

    def rand_elem():
        f = L.zero()
        for el in rng.sample(basis, 3):
            f = f + el.scale(Q(rng.randint(-3, 3)))
        return f

    def dot_action(f, tensor):
        out = {}
        for kf, vf in f.chev_parts().items():
            for (dx, dy, i, j), c in tensor.items():
                for fi, fc in vf.items():
                    for t, ct in L.alg.bracket_basis(fi, i).items():
                        key = (dx + kf, dy, t, j)
                        s = out.get(key, 0) + c * fc * ct
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
                    for t, ct in L.alg.bracket_basis(fi, j).items():
                        key = (dx, dy + kf, i, t)
                        s = out.get(key, 0) + c * fc * ct
                        if s:
                            out[key] = s
                        else:
                            out.pop(key, None)
        return out

    for trial in range(20):
        f = rand_elem()
        d = cobracket(f, r)
        tau = {(dy, dx, j, i): c for (dx, dy, i, j), c in d.items()}
        ok = ok and t2_add(d, tau) == {}
        acc = {}
        for (dx, dy, i, j), c in d.items():
            for s1, c1 in L.chev_slots[i]:
                from loopcybe.loop import LoopElement
                inner = cobracket(LoopElement(L, {(s1, dx): Q(1)}), r)
                for (a, b, p, q_), ci in inner.items():
                    key = (a, b, dy, p, q_, j)
                    s = acc.get(key, 0) + c * c1 * ci
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
        ok = ok and alt_cyclic(acc) == {}
        g = rand_elem()
        lhs = cobracket(L.bracket(f, g), r)
        rhs = t2_add(dot_action(f, cobracket(g, r)),
                     t2_scale(dot_action(g, cobracket(f, r)), -1))
        ok = ok and lhs == rhs
    report(7, ok, "generator values on sl2/sl3 + 20 random residual checks")
    assert ok


def test_criterion_08_regrading_lemma():
    """Exponent identity for the two (s, s') pairs; quotient dependence."""
    ok = True
    ok = ok and rg.exponent_identity(loop_algebra(A1),
                                     loop_algebra(SigmaType.make("A1", [1, 1])))["ok"]
    prin = loop_algebra(SigmaType.make("A2", [1, 1, 1]))
    ok = ok and rg.exponent_identity(loop_algebra(A2), prin)["ok"]
    ok = ok and rg.quotient_dependence(r0(prin))
    q = BDQuadruple.make(A2, {1, 2}, {0, 1}, {1: 0, 2: 1},
                         canonical_t_h(A2, {1, 2}, {0, 1}, {1: 0, 2: 1}))
    t = rg.regrade_loop_tensor(loop_algebra(A2), prin, build_twist(q))
    ok = ok and rg.loop_tensor_balanced(t)
    ok = ok and rg.quotient_dependence(r0(prin) + from_loop_tensor(prin, t))
    report(8, ok, "exponent identity (A1, A2) + principal-grading balance")
    assert ok


def test_criterion_09_manin_identity():
    """Correspondence identity on 20 random triples, twist and non-twist."""
    ok = True
    L = loop_algebra(A2)
    q = BDQuadruple.make(A2, {1}, {2}, {1: 2}, canonical_t_h(A2, {1}, {2}, {1: 2}))
    t_good = build_twist(q)
    rng = random.Random(30)
    samples = w0_samples(L, 2)
    for _ in range(20):
        tri = tuple(rng.sample(samples, 3))
        left, right = manin_identity_sides(L, t_good, tri)
        ok = ok and left == right == 0
    L2 = loop_algebra(A1)
    e = L2.from_chev(0, {0: Q(1)})
    f = L2.from_chev(0, {1: Q(1)})
    t_bad = wedge(L2, e, f)
    samples2 = w0_samples(L2, 2)
    seen_nonzero = False
    for _ in range(20):
        tri = tuple(rng.sample(samples2, 3))
        left, right = manin_identity_sides(L2, t_bad, tri)
        ok = ok and left == right
        seen_nonzero = seen_nonzero or left != 0
    if not seen_nonzero:
        small = w0_samples(L2, 1)
        for w1 in small:
            for w2 in small:
                for w3 in small:
                    left, right = manin_identity_sides(L2, t_bad, (w1, w2, w3))
                    ok = ok and left == right
                    seen_nonzero = seen_nonzero or left != 0
    ok = ok and seen_nonzero
    report(9, ok, "twist: both sides zero; non-twist: equal and nonzero")
    assert ok


def test_criterion_10_equivalence_group_action():
    """Witness for every automorphism; parabolic check false across node 0."""
    ok = True
    q = BDQuadruple.make(A2, {1}, {2}, {1: 2}, canonical_t_h(A2, {1}, {2}, {1: 2}))
    group = cl.loop_diagram_automorphisms(affine_diagram_data(A2))
    ok = ok and len(group) == 6
    for perm in group:
        ok = ok and cl.equivalence_witness(q, cl.act(perm, q)) is not None
    rot = (1, 2, 0)
    qb = cl.act(rot, q)
    S = {1, 2}
    witnesses = cl.all_equivalence_witnesses(q, qb)
    ok = ok and witnesses and all(0 in {w[i] for i in S} or w[0] != 0 for w in witnesses)
    ok = ok and cl.parabolic_restriction_check(q, qb, S) is False
    ok = ok and cl.parabolic_restriction_check(q, q, S) is True
    report(10, ok, "order-6 group action + parabolic restriction verdicts")
    assert ok

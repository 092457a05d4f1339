import random
from fractions import Fraction as Q

import pytest

import loopcybe.bd as bd
import loopcybe.classify as cl
import loopcybe.regrade as rg
from loopcybe.bd import BDQuadruple, build_twist, canonical_t_h
from loopcybe.loop import SigmaType, loop_algebra
from loopcybe.tensors import cybe, from_loop_tensor, r0, skew, twist_residual

A1_STD = SigmaType.make("A1", [1, 0])
A1_COX = SigmaType.make("A1", [1, 1])
A2_STD = SigmaType.make("A2", [1, 0, 0])
A2_PRIN = SigmaType.make("A2", [1, 1, 1])


def test_regrade_identity():
    L = loop_algebra(A1_STD)
    for f in L.basis_up_to(2):
        assert rg.regrade_element(L, L, f) == f


def test_regrade_sl2_root_vectors():
    src, dst = loop_algebra(A1_STD), loop_algebra(A1_COX)
    e = src.from_chev(0, {0: Q(1)})
    f = src.from_chev(0, {1: Q(1)})
    h = src.from_chev(0, {2: Q(1)})
    # root (alpha, 0) has hgt_{(1,1)} = 1: e -> z e, f -> z^-1 f, h fixed
    assert rg.regrade_element(src, dst, e) == dst.from_chev(1, {0: Q(1)})
    assert rg.regrade_element(src, dst, f) == dst.from_chev(-1, {1: Q(1)})
    assert rg.regrade_element(src, dst, h) == dst.from_chev(0, {2: Q(1)})


def test_regrade_is_graded_isomorphism():
    src, dst = loop_algebra(A2_STD), loop_algebra(A2_PRIN)
    random.seed(21)
    basis = src.basis_up_to(2)
    for _ in range(40):
        f, g = random.sample(basis, 2)
        lhs = rg.regrade_element(src, dst, src.bracket(f, g))
        rhs = dst.bracket(rg.regrade_element(src, dst, f),
                          rg.regrade_element(src, dst, g))
        assert (lhs - rhs).is_zero()


def test_regrade_composition():
    src = loop_algebra(A2_STD)
    mid = loop_algebra(SigmaType.make("A2", [1, 1, 0]))
    dst = loop_algebra(A2_PRIN)
    for f in src.basis_up_to(2):
        via = rg.regrade_element(mid, dst, rg.regrade_element(src, mid, f))
        direct = rg.regrade_element(src, dst, f)
        assert (via - direct).is_zero()


def test_mu_trivial():
    L = loop_algebra(A1_STD)
    assert rg.solve_mu(L, L) == [Q(0)]


def test_mu_sl2_values():
    src, dst = loop_algebra(A1_STD), loop_algebra(A1_COX)
    mu = rg.solve_mu(src, dst)
    vals = [sum(w * m for w, m in zip(src.node_weights[i], mu)) for i in range(2)]
    assert vals == [Q(-1, 2), Q(1, 2)]    # alpha_0(mu), alpha_1(mu)


def test_mu_consistency_telescopes():
    # sum of marks-weighted equations vanishes: both sides give 0
    src, dst = loop_algebra(A2_STD), loop_algebra(A2_PRIN)
    rhs = [Q(dst.sigma.s[i], dst.m) - Q(src.sigma.s[i], src.m) for i in range(3)]
    assert sum(a * r for a, r in zip(src.marks, rhs)) == 0


def test_exponent_identity_trivial():
    L = loop_algebra(A1_STD)
    assert rg.exponent_identity(L, L)["ok"]


def test_exponent_identity_sl2():
    rep = rg.exponent_identity(loop_algebra(A1_STD), loop_algebra(A1_COX))
    assert rep["ok"]
    # the (alpha, 0) term: 0/1 + 1/2 matches 1/2 on the Coxeter side,
    # i.e. the monomial exp(-u/2 + v/2) on both sides
    term = [t for t in rep["terms"] if t["nu_degree"] == 0 and t["lhs"].q == Q(1, 2)]
    assert term
    assert all(t["lhs"] == t["rhs"] for t in rep["terms"])
    assert all(t["lhs"].p == -t["lhs"].q for t in rep["terms"])


def test_exponent_identity_sl3_principal():
    rep = rg.exponent_identity(loop_algebra(A2_STD), loop_algebra(A2_PRIN))
    assert rep["ok"]


def test_exponent_identity_b2():
    rep = rg.exponent_identity(loop_algebra(SigmaType.make("B2", [1, 0, 0])),
                               loop_algebra(SigmaType.make("B2", [1, 1, 1])))
    assert rep["ok"]


def test_exponent_identity_twisted_pairs_each_slot_with_its_dual():
    """On A3^(2) each term is labelled (slot of -alpha at -k, slot of alpha
    at k): the nu-classes of the two slots add up to 0."""
    src = loop_algebra(SigmaType.make("A3", [1, 0, 0], (2, 1, 0)))
    rep = rg.exponent_identity(src, loop_algebra(SigmaType.make("A3", [1, 1, 1], (2, 1, 0))))
    assert rep["ok"]
    for t in rep["terms"]:
        dual, slot = (src.slots[i] for i in t["lhs"].slots)
        assert dual.weight == tuple(-x for x in slot.weight)
        assert (dual.nu_class + slot.nu_class) % src.nu_order == 0


def test_quotient_dependence_principal():
    assert rg.quotient_dependence(r0(loop_algebra(A2_PRIN)))
    assert rg.quotient_dependence(r0(loop_algebra(A1_COX)))


def test_quotient_dependence_detects_unbalanced():
    L = loop_algebra(A1_STD)
    r = r0(L)
    bad = type(r)(L, {(1, 0, 0, 1): Q(1)}, [dict() for _ in range(L.m)])
    assert not rg.quotient_dependence(bad)


def test_regraded_twist_balanced():
    sigma = A2_STD
    q = BDQuadruple.make(sigma, {1, 2}, {0, 1}, {1: 0, 2: 1},
                         canonical_t_h(sigma, {1, 2}, {0, 1}, {1: 0, 2: 1}))
    src, dst = loop_algebra(sigma), loop_algebra(A2_PRIN)
    t = rg.regrade_loop_tensor(src, dst, build_twist(q))
    assert rg.loop_tensor_balanced(t)
    r = r0(dst) + from_loop_tensor(dst, t)
    assert rg.quotient_dependence(r)
    assert not cybe(r)


def test_apply_identity_rescale():
    L = loop_algebra(A1_STD)
    r = r0(L)
    out = rg.apply_equivalence({"kind": "rescale", "a": Q(1)}, r)
    assert out == r


def test_apply_rescale_preserves_solutions():
    L = loop_algebra(A1_COX)
    r = r0(L)
    out = rg.apply_equivalence({"kind": "rescale", "a": Q(3, 2)}, r)
    assert not cybe(out)
    assert skew(out).is_zero()


def test_apply_exp_ad():
    L = loop_algebra(A1_STD)
    n = L.from_chev(1, {0: Q(1)})    # z e, nilpotent of nonzero weight
    out = rg.apply_equivalence({"kind": "exp_ad", "element": n}, r0(L))
    assert out.pole_num == r0(L).pole_num          # pole part unchanged
    t = (out - r0(L)).poly
    assert t                                        # a genuine twist appears
    assert not twist_residual(L, t)
    assert not cybe(out)


def test_apply_exp_ad_to_twisted_solution():
    """exp(ad e_theta) transports r_Q to another exact solution on sl3."""
    L = loop_algebra(A2_STD)
    q = BDQuadruple.make(A2_STD, {1}, {2}, {1: 2},
                         canonical_t_h(A2_STD, {1}, {2}, {1: 2}))
    r_q = r0(L) + from_loop_tensor(L, build_twist(q))
    theta_idx = L.alg.e_index(L.alg.rs.highest_root())
    n = L.from_chev(0, {theta_idx: Q(1)})
    moved = rg.apply_equivalence({"kind": "exp_ad", "element": n}, r_q)
    assert moved.pole_num == r_q.pole_num
    assert not cybe(moved)
    assert skew(moved).is_zero()


def test_apply_exp_ad_rejects_non_nilpotent():
    L = loop_algebra(A1_STD)
    h = L.from_chev(0, {2: Q(1)})
    with pytest.raises(ValueError):
        rg.apply_equivalence({"kind": "exp_ad", "element": h}, r0(L))


def test_apply_unknown_family():
    L = loop_algebra(A1_STD)
    with pytest.raises(ValueError):
        rg.apply_equivalence({"kind": "mystery"}, r0(L))


def test_apply_diagram_matches_quadruple_action():
    """The rotation sends r_Q to r_{rot(Q)}, graded by s = e_0 and principally."""
    rot = (1, 2, 0)
    for sigma in (A2_STD, A2_PRIN):
        q = BDQuadruple.make(sigma, {1, 2}, {0, 1}, {1: 0, 2: 1},
                             canonical_t_h(sigma, {1, 2}, {0, 1}, {1: 0, 2: 1}))
        L = loop_algebra(sigma)
        r_q = r0(L) + from_loop_tensor(L, build_twist(q))
        moved = rg.apply_equivalence({"kind": "diagram", "perm": rot}, r_q)
        r_q2 = r0(L) + from_loop_tensor(L, build_twist(cl.act(rot, q)))
        assert moved == r_q2
        assert not cybe(moved)


def test_apply_conjugates_residue_operator():
    """phi R_s phi^{-1} = R_t for t the transported twist (sampled)."""
    from loopcybe.tensors import residue_operator
    L = loop_algebra(A1_STD)
    n = L.from_chev(1, {0: Q(1)})
    phi = rg.exp_ad_map(L, n)
    phi_inv = rg.exp_ad_map(L, n.scale(-1))
    r_s = r0(L)
    r_t = rg.apply_equivalence({"kind": "exp_ad", "element": n}, r_s)
    rs_op = residue_operator(L, {})
    rt_op = residue_operator(L, (r_t - r_s).poly)
    for f in L.basis_up_to(2):
        lhs = phi(rs_op(phi_inv(f)))
        rhs = rt_op(f)
        assert (lhs - rhs).is_zero()


def test_rescale_and_exp_ad_past_degree_six():
    """r0 of A7 principal (m = 8) has pole legs up to degree 7.  It is a
    function of x/y, so rescaling fixes it; exp(ad n) moves it to another
    skew solution with the same pole."""
    L = loop_algebra(SigmaType.make("A7", [1] * 8))
    r = r0(L)
    assert rg.apply_equivalence({"kind": "rescale", "a": Q(3, 2)}, r) == r
    n = L.generators()[1]["plus"]
    out = rg.apply_equivalence({"kind": "exp_ad", "element": n}, r)
    assert out.pole_num == r.pole_num and out != r
    assert skew(out).is_zero()


def test_exp_ad_of_principal_nilpotent():
    """e = e_1 + ... + e_6 in sl7 is ad-nilpotent of index 13: ad(e)^12
    f_theta is not zero.  exp(ad e) sends r0 to an exact skew solution."""
    L = loop_algebra(SigmaType.make("A6", [1, 0, 0, 0, 0, 0, 0]))
    gens = L.generators()
    e = gens[1]["plus"]
    for g in gens[2:]:
        e = e + g["plus"]
    r = r0(L)
    out = rg.apply_equivalence({"kind": "exp_ad", "element": e}, r)
    assert out.pole_num == r.pole_num
    assert skew(out).is_zero()
    assert not cybe(out)


def test_diagram_swap_fixes_principal_r0():
    """The swap of nodes 0 and 1 of B4^(1) preserves the principal grading
    (m = 8, pole legs up to degree 7), so it fixes r0."""
    L = loop_algebra(SigmaType.make("B4", [1] * 5))
    r = r0(L)
    assert rg.apply_equivalence({"kind": "diagram", "perm": (1, 0, 2, 3, 4)}, r) == r


def test_diagram_map_commutes_with_exp_ad_past_the_generators():
    """(phi (x) phi) exp(ad n) = exp(ad phi(n)) (phi (x) phi) on r0 of A2
    principal, with n = z^4 e_1: the tensors moved have legs at degrees 4
    and 8, past the degree max s + m = 4 that the affine generators reach
    without the degree of the tensor."""
    L = loop_algebra(A2_PRIN)
    rot = {"kind": "diagram", "perm": (1, 2, 0)}
    n = L.from_chev(4, {L.alg.e_index((1, 0)): Q(1)})
    phi_n = rg.diagram_map(L, rot["perm"], 4)(n)
    lhs = rg.apply_equivalence(rot, rg.apply_equivalence({"kind": "exp_ad", "element": n}, r0(L)))
    rhs = rg.apply_equivalence({"kind": "exp_ad", "element": phi_n}, rg.apply_equivalence(rot, r0(L)))
    assert lhs == rhs
    assert lhs != r0(L)

from fractions import Fraction as Q
from math import comb

import pytest

import loopcybe.bd as bd
import loopcybe.classify as cl
from loopcybe.bd import BDQuadruple, canonical_t_h
from loopcybe.loop import SigmaType, affine_diagram_data, loop_algebra

A1 = SigmaType.make("A1", [1, 0])
A2 = SigmaType.make("A2", [1, 0, 0])


def quad(sigma, g1, g2, gamma):
    return BDQuadruple.make(sigma, g1, g2, gamma,
                            canonical_t_h(sigma, g1, g2, gamma))


@pytest.mark.parametrize("sigma,order", [
    (A1, 2),                                   # brute force over 2 perms
    (A2, 6),                                   # triangle symmetries
    (SigmaType.make("E8", [1] + [0] * 8), 1),  # no nontrivial symmetry
])
def test_group_orders(sigma, order):
    L = affine_diagram_data(sigma)
    group = cl.loop_diagram_automorphisms(L)
    assert len(group) == order
    # closure under composition and inverse
    gs = set(group)
    for p in group:
        assert tuple(sorted(range(len(p)), key=lambda i: p[i])) in gs or \
            tuple(p.index(i) for i in range(len(p))) in gs
        for q_ in group:
            assert tuple(p[i] for i in q_) in gs


def test_act_identity():
    q = quad(A2, {1}, {2}, {1: 2})
    assert cl.act(tuple(range(3)), q) == q


def test_act_rotation_validates():
    q = quad(A2, {1}, {2}, {1: 2})
    rot = (1, 2, 0)
    q2 = cl.act(rot, q)
    assert q2.gamma1 == frozenset({2})
    assert q2.gamma2 == frozenset({0})
    assert bd.validate(q2)["valid"]


def test_act_preserves_skewness():
    q = quad(A2, {1, 2}, {0, 1}, {1: 0, 2: 1})
    for perm in cl.loop_diagram_automorphisms(affine_diagram_data(A2)):
        th = cl.act(perm, q).t_h_dict
        assert all(a < b for (a, b) in th)     # canonical skew storage


def test_act_is_group_action():
    q = quad(A2, {1}, {2}, {1: 2})
    group = cl.loop_diagram_automorphisms(affine_diagram_data(A2))
    for p1 in group:
        for p2 in group:
            composed = tuple(p2[p1[i]] for i in range(3))
            assert cl.act(p2, cl.act(p1, q)) == cl.act(composed, q)


def test_equivalence_round_trip():
    q = quad(A2, {1}, {2}, {1: 2})
    for perm in cl.loop_diagram_automorphisms(affine_diagram_data(A2)):
        assert cl.equivalence_witness(q, cl.act(perm, q)) is not None


def test_equivalence_is_symmetric():
    qa = quad(A2, {1}, {2}, {1: 2})
    qb = cl.act((1, 2, 0), qa)
    assert (cl.equivalence_witness(qa, qb) is None) == \
        (cl.equivalence_witness(qb, qa) is None)


def test_equivalence_witness_exists_iff_alignable():
    # ({1},{2}) vs ({1},{0}): a triangle symmetry aligning both exists
    qa = quad(A2, {1}, {2}, {1: 2})
    qb = quad(A2, {1}, {0}, {1: 0})
    w = cl.equivalence_witness(qa, qb)
    assert w is not None
    assert cl.act(w, qa).gamma2 == qb.gamma2


def test_equivalence_rejects_shifted_t_h():
    """Perturbing t_h off the affine solution family breaks equivalence."""
    qa = quad(A2, {1}, {2}, {1: 2})
    shifted = dict(qa.t_h_dict)
    shifted[(0, 1)] = shifted.get((0, 1), Q(0)) + Q(1)
    qb = BDQuadruple.make(A2, {1}, {2}, {1: 2}, shifted)
    assert cl.equivalence_witness(qa, qb) is None


def test_enumerate_a1_orbits():
    reps = cl.enumerate_representatives(A1)
    # empty triple plus the two singleton bijections merged into one orbit
    assert len(reps) == 2
    assert reps[0]["triple"] == ((), (), ())
    assert reps[0]["orbit_size"] == 1
    assert reps[1]["orbit_size"] == 2


def test_orbit_sizes_divide_group_order():
    reps = cl.enumerate_representatives(A2)
    for rep in reps:
        assert 6 % rep["orbit_size"] == 0


def test_orbit_partition():
    # sum of orbit sizes = number of valid triples
    L = affine_diagram_data(A2)
    total = len(cl.enumerate_triples(L))
    reps = cl.enumerate_representatives(A2)
    assert sum(r["orbit_size"] for r in reps) == total == 13


def test_reachability_empty_and_full():
    L = affine_diagram_data(A2)
    ok, wit = cl.quasi_trig_reachable(L, set())
    assert ok and wit == (0, 1, 2)
    # any proper subset on A-type diagrams is reachable via rotations
    for mask in range(1, 7):
        g1 = {i for i in range(3) if mask >> i & 1}
        ok, wit = cl.quasi_trig_reachable(L, g1)
        assert ok
        assert 0 not in {wit[i] for i in g1}


def test_reachability_negative_case():
    # E6^(1): some Gamma_1 is not movable off the affine node
    sigma = SigmaType.make("E6", [1] + [0] * 6)
    L = affine_diagram_data(sigma)
    wit = cl.unreachable_admissible_gamma1(L)
    assert wit is not None
    ok, _ = cl.quasi_trig_reachable(L, wit["gamma1"])
    assert not ok
    # and the witness supports a valid quadruple
    q = quad(sigma, wit["gamma1"], wit["gamma2"], wit["gamma"])
    assert bd.validate(q)["valid"]


def test_census_verified_truth():
    """The computed census.  The B4 and D6 verdicts are certified by the
    hand-built quadruples and exact twist residuals of acceptance
    criterion 6 (tests/test_acceptance.py::certify_departure)."""
    rows = cl.type_census(["A4", "C3", "B3", "B4", "D5", "D6", "G2"], 6)
    verdicts = {(r["type"], r["rank"]): r["good"] for r in rows}
    assert verdicts[("A", 4)] and verdicts[("C", 3)] and verdicts[("B", 3)]
    assert verdicts[("D", 5)]
    assert not verdicts[("B", 4)]
    assert not verdicts[("D", 6)]
    assert not verdicts[("G", 2)]


def test_census_witnesses_are_valid_quadruples():
    for row in cl.type_census(["B5", "G2", "F4"], 5):
        if row["good"]:
            continue
        wit = row["witness"]
        sigma = SigmaType(cl.CartanType(row["type"], row["rank"]),
                          tuple([1] + [0] * row["rank"]))
        q = quad(sigma, wit["gamma1"], wit["gamma2"], wit["gamma"])
        assert bd.validate(q)["valid"]
        L = affine_diagram_data(sigma)
        ok, _ = cl.quasi_trig_reachable(L, wit["gamma1"])
        assert not ok


def test_census_ranks_12_to_16():
    """A_n and C_n good; B_n and D_n bad, their witness Gamma_1 being the
    mark-1 set ({0, 1} on B_n, {0, 1, n-1, n} on D_n; Kac, Table Aff 1),
    a valid quadruple that no diagram automorphism moves off node 0."""
    rows = cl.type_census(["A", "B", "C", "D"], 16)
    rows = [r for r in rows if r["rank"] >= 12]
    assert len(rows) == 20
    for row in rows:
        n = row["rank"]
        assert row["good"] == (row["type"] in "AC"), row
        if row["good"]:
            continue
        sigma = SigmaType(cl.CartanType(row["type"], n), tuple([1] + [0] * n))
        L = affine_diagram_data(sigma)
        mark1 = [i for i, a in enumerate(L.marks) if a == 1]
        assert row["witness_gamma1"] == mark1 == ([0, 1] if row["type"] == "B"
                                                  else [0, 1, n - 1, n])
        wit = row["witness"]
        assert bd.validate(quad(sigma, wit["gamma1"], wit["gamma2"], wit["gamma"]))["valid"]
        assert not cl.quasi_trig_reachable(L, wit["gamma1"])[0]


def test_census_ranks_17_to_32():
    """Past 17 affine nodes the four series are the families in n that
    README.md states: A_n and C_n good, B_n bad with witness Gamma_1 = {0, 1},
    D_n bad with {0, 1, n-1, n}, whose t_h family has dimension
    C(n + 1 - |Gamma_1|, 2) (criterion 3)."""
    labels = ["%s%d" % (t, n) for t in "ABCD" for n in range(17, 33)]
    rows = cl.type_census(labels, 32)
    assert ["%s%d" % (r["type"], r["rank"]) for r in rows] == labels
    for row in rows:
        n = row["rank"]
        want = {"A": None, "C": None, "B": [0, 1], "D": [0, 1, n - 1, n]}[row["type"]]
        assert row["good"] == (want is None) and row["witness_gamma1"] == want, row
        if want:
            assert row["witness"]["t_h_dimension"] == comb(n + 1 - len(want), 2), row


def test_a3_orbit_partition_and_stabilizers():
    """Orbit sizes divide the dihedral group order 8 and partition A3^(1)."""
    sigma = SigmaType.make("A3", [1, 0, 0, 0])
    L = affine_diagram_data(sigma)
    group = cl.loop_diagram_automorphisms(L)
    assert len(group) == 8
    reps = cl.enumerate_representatives(sigma)
    total = len(cl.enumerate_triples(L))
    assert sum(r["orbit_size"] for r in reps) == total
    assert all(8 % r["orbit_size"] == 0 for r in reps)


def test_t_h_family_equivariance():
    """The condition-3 family of theta(triple) is the theta-image family."""
    from loopcybe.bd import th_solution_space
    from test_oracles import in_span, t_h_vector
    q = quad(A2, {1}, {2}, {1: 2})
    space = th_solution_space(A2, q.gamma1, q.gamma2, q.gamma_map)
    L = affine_diagram_data(A2)
    for perm in cl.loop_diagram_automorphisms(L):
        q2 = cl.act(perm, q)
        space2 = th_solution_space(A2, q2.gamma1, q2.gamma2, q2.gamma_map)
        assert space2["dimension"] == space["dimension"]
        # the moved particular solution lies in the target affine family
        moved = cl.act_on_t_h(L, perm, space["particular"])
        diff = dict(moved)
        for k, c in space2["particular"].items():
            diff[k] = diff.get(k, 0) - c
        diff = {k: v for k, v in diff.items() if v}
        pairs = space2["pairs"]
        homog = [t_h_vector(b, pairs, L.nh) for b in space2["basis"]]
        assert in_span(homog, t_h_vector(diff, pairs, L.nh))


def test_parabolic_restriction_identity_case():
    q = quad(A2, {1}, {2}, {1: 2})
    S = {1, 2}   # Pi minus the affine node
    assert cl.parabolic_restriction_check(q, q, S) is True


def test_parabolic_restriction_rotation_case():
    """Quadruples connected only by node-0-moving automorphisms fail."""
    qa = quad(A2, {1}, {2}, {1: 2})
    rot = (1, 2, 0)
    qb = cl.act(rot, qa)
    assert qb.gamma1 == frozenset({2}) and qb.gamma2 == frozenset({0})
    S = {1, 2}
    # gamma1 of both is inside S, but every witness moves node 0
    assert cl.parabolic_restriction_check(qa, qb, S) is False


def test_parabolic_restriction_requires_containment():
    qa = quad(A2, {1}, {2}, {1: 2})
    with pytest.raises(ValueError):
        cl.parabolic_restriction_check(qa, qa, {2})


@pytest.mark.parametrize("label,s,nu", [
    ("A4", [0, 1, 0], [3, 2, 1, 0]),
    ("D4", [1, 0, 0], [2, 1, 3, 0]),
    ("E6", [1, 0, 0, 0, 0], [5, 1, 4, 3, 2, 0]),
])
def test_outer_twist_catalog_needs_no_structure_constants(monkeypatch, label, s, nu):
    """Catalogs and validation run on the root system alone, outer nu included."""
    import loopcybe.loop as lp

    def refuse(*args):
        raise AssertionError("structure constants built")

    monkeypatch.setattr(lp, "chevalley_algebra", refuse)
    monkeypatch.setattr(lp, "_LOOP_CACHE", {})
    monkeypatch.setattr(lp, "_DIAGRAM_CACHE", {})
    sigma = SigmaType.make(label, s, nu)
    for rep in cl.enumerate_representatives(sigma):
        g1, g2, gm = rep["triple"]
        assert bd.validate(BDQuadruple.make(sigma, g1, g2, dict(gm)))["structure"]["ok"]
        bd.th_solution_space(sigma, g1, g2, dict(gm))

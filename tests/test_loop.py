import random
from fractions import Fraction as Q

import pytest

from loopcybe import cli, loop
from loopcybe.cartan import CartanType
from loopcybe.linalg import kernel_basis, solve
from loopcybe.loop import SigmaType, affine_diagram_data, affine_node_count, loop_algebra
from test_oracles import oracle_cartan_gram


def marks_null_space_oracle(cartan):
    """Independent oracle: positive integer null vector of the affine matrix.

    The marks are the unique primitive positive solution of A^T a = 0
    (equivalently sum_i a_i alpha_i = 0 on coroots).
    """
    n = len(cartan)
    rows = [[Q(cartan[i][j]) for i in range(n)] for j in range(n)]
    ker = kernel_basis(rows, Q(0), Q(1))
    assert len(ker) == 1
    v = ker[0]
    scale = 1
    for x in v:
        scale = scale * x.denominator // _gcd(scale, x.denominator)
    ints = [int(x * scale) for x in v]
    if any(c < 0 for c in ints):
        ints = [-c for c in ints]
    g = 0
    for c in ints:
        g = _gcd(g, c)
    return [c // g for c in ints]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def test_marks_a1():
    L = loop_algebra(SigmaType.make("A1", [1, 0]))
    assert L.marks == [1, 1]
    assert L.marks == marks_null_space_oracle(L.affine_cartan)


def test_marks_a2():
    L = loop_algebra(SigmaType.make("A2", [1, 0, 0]))
    assert L.marks == [1, 1, 1]
    assert L.marks == marks_null_space_oracle(L.affine_cartan)


def test_marks_twisted_a2():
    L = loop_algebra(SigmaType.make("A2", [1, 0], nu=[1, 0]))
    assert L.marks == marks_null_space_oracle(L.affine_cartan)
    # the twisted A2 matrix; node 0 carries the lowest weight of g_1,
    # which labels the diagram from the opposite end of some tables
    assert L.affine_cartan == [[2, -4], [-1, 2]]


def test_identity_nu_is_stored_as_none():
    """An identity nu names the untwisted diagram: one value, one cache entry."""
    spelled, plain = SigmaType.make("A2", [1, 0, 0], [0, 1]), SigmaType.make("A2", [1, 0, 0])
    assert spelled.nu is None and spelled == plain
    assert affine_diagram_data(spelled) is affine_diagram_data(plain)
    assert loop_algebra(spelled) is loop_algebra(plain)


@pytest.mark.parametrize("label,s,nu,m", [
    ("A1", [1, 0], None, 1),       # sigma = id
    ("A1", [1, 1], None, 2),       # Coxeter
    ("A2", [1, 1, 1], None, 3),    # principal, marks all 1
    ("A2", [1, 0], [1, 0], 2),     # nu itself: s = (1,0,...,0)
])
def test_sigma_order(label, s, nu, m):
    assert loop_algebra(SigmaType.make(label, s, nu)).m == m


def test_sigma_rejects_zero_s():
    with pytest.raises(ValueError):
        SigmaType.make("A1", [0, 0])


def test_affine_cartan_tabulated():
    tab = {
        ("A1", None): [[2, -2], [-2, 2]],
        ("A2", None): [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        ("C2", None): [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],
    }
    for (label, nu), want in tab.items():
        L = loop_algebra(SigmaType.make(label, [1] + [0] * (len(want) - 1), nu))
        assert L.affine_cartan == want


def test_s_height_simple_roots(sl3_loop):
    # hgt_s of the simple root alpha_i is s_i
    for i in range(3):
        w = sl3_loop.node_weights[i]
        k = sl3_loop.node_nu_degree[i]
        assert sl3_loop.s_height(w, k) == sl3_loop.sigma.s[i]


def test_s_height_imaginary(sl3_loop):
    # hgt_s of (0, |nu|) = sum a_i s_i = m / |nu|
    zero = tuple(Q(0) for _ in range(sl3_loop.nh))
    assert sl3_loop.s_height(zero, 1) == sl3_loop.m


def test_s_height_principal_is_classical_height(sl3_principal):
    L = sl3_principal
    for slot in L.slots:
        if slot.positive is None:
            continue
        cs = L.decompose_pair(slot.weight, slot.nu_class)
        assert slot.nu_base_degree == sum(cs)


def test_graded_pieces_identity(sl2_loop):
    # sigma = id: g_0 = g, no other classes
    assert all(s.sigma_class == 0 for s in sl2_loop.slots)


def test_graded_pieces_coxeter_sl2(sl2_coxeter):
    by_class = {}
    for s in sl2_coxeter.slots:
        by_class.setdefault(s.sigma_class, []).append(s)
    assert len(by_class[0]) == 1       # h
    assert len(by_class[1]) == 2       # e and (shifted) f
    assert by_class[0][0].cartan


def test_graded_pieces_twisted_a2(a2_twisted):
    d0 = [s for s in a2_twisted.slots if s.nu_class == 0]
    d1 = [s for s in a2_twisted.slots if s.nu_class == 1]
    assert (len(d0), len(d1)) == (3, 5)


def test_graded_piece_properties(sl3_principal, a2_twisted):
    for L in (sl3_principal, a2_twisted):
        # direct sum over one period recovers g, with periodicity
        assert sum(len(L.graded_piece(k)) for k in range(L.m)) == L.alg.dim
        for k in range(L.m):
            assert L.graded_piece(k) == L.graded_piece(k + L.m)
        # bracket grading [g_j, g_k] <= g_{j+k}
        for j in range(L.m):
            for k in range(L.m):
                for a in L.graded_piece(j):
                    for b in L.graded_piece(k):
                        br = L.alg.bracket(a, b)
                        if br:
                            for sid in L.slot_coords(br):
                                assert L.slots[sid].sigma_class == (j + k) % L.m


def test_from_chev_rejects_indices_outside_g(sl3_loop, a2_twisted):
    """Index -1 must not wrap round to the last basis vector."""
    for L in (sl3_loop, a2_twisted):
        for i in (-1, L.alg.dim):
            with pytest.raises(ValueError):
                L.from_chev(0, {i: Q(1)})


def test_bracket_degree_addition(sl2_loop):
    L = sl2_loop
    e = L.from_chev(1, {0: Q(1)})      # z e
    f = L.from_chev(-1, {1: Q(1)})     # z^-1 f
    h = L.from_chev(0, {2: Q(1)})
    assert L.bracket(e, f) == h
    assert L.bracket(h, e) == e.scale(2)


def test_bracket_jacobi_random(sl3_loop, a2_twisted):
    random.seed(2)
    for L in (sl3_loop, a2_twisted):
        basis = L.basis_up_to(2)
        for _ in range(30):
            f, g, h = random.sample(basis, 3)
            jac = L.bracket(f, L.bracket(g, h)) + L.bracket(g, L.bracket(h, f)) \
                + L.bracket(h, L.bracket(f, g))
            assert jac.is_zero()


def test_form_values(sl2_loop):
    L = sl2_loop
    e = L.from_chev(1, {0: Q(1)})
    f = L.from_chev(-1, {1: Q(1)})
    f0 = L.from_chev(0, {1: Q(1)})
    assert L.form(e, f) == 4           # kappa(e, f)
    assert L.form(e, f0) == 0          # degree mismatch


def test_form_invariance_random(sl3_loop, a2_twisted):
    random.seed(4)
    for L in (sl3_loop, a2_twisted):
        basis = L.basis_up_to(2)
        for _ in range(30):
            f, g, h = random.sample(basis, 3)
            assert L.form(L.bracket(f, g), h) == L.form(f, L.bracket(g, h))


def test_root_space_pairing(sl3_loop, a2_twisted):
    """B pairs (alpha, k) with (-alpha, -k) nondegenerately, all else zero."""
    for L in (sl3_loop, a2_twisted):
        for k in range(-2, 3):
            for e1 in L.basis_of_degree(k):
                (sid1, _), = e1.terms
                s1 = L.slots[sid1]
                for l in range(-2, 3):
                    for e2 in L.basis_of_degree(l):
                        (sid2, _), = e2.terms
                        s2 = L.slots[sid2]
                        val = L.form(e1, e2)
                        opposite = (k + l == 0 and
                                    all(a + b == 0 for a, b in zip(s1.weight, s2.weight)))
                        if not opposite:
                            assert val == 0
                        elif s1.positive is not None:
                            assert val != 0


def test_root_vector_normalization(sl2_loop, a2_twisted):
    L = sl2_loop
    sid = [s.index for s in L.slots if s.positive is True][0]
    b, bd = L.root_vector_pair(sid, 0)
    assert L.form(b, bd) == 1
    assert bd.terms[list(bd.terms)[0]] == Q(1, 4)    # f/4 since kappa(e,f) = 4
    # rescaling invariance: b -> c b forces bd -> bd / c
    c = Q(7, 3)
    assert L.form(b.scale(c), bd.scale(1 / c)) == 1
    # twisted: a degree-1 root vector pairs to 1 with its negative
    Lt = a2_twisted
    sid = [s.index for s in Lt.slots if s.positive is True and s.sigma_class == 1][0]
    b, bd = Lt.root_vector_pair(sid, 1)
    assert Lt.form(b, bd) == 1


def test_root_decomposition_signs(sl3_loop, a2_twisted):
    """Positive roots decompose with all non-negative integer coefficients."""
    for L in (sl3_loop, a2_twisted):
        for k in range(-2 * L.m, 2 * L.m + 1):
            for sid in L.roots_of_degree(k):
                slot = L.slots[sid]
                cs = L.decompose_pair(slot.weight, L.nu_root_degree(sid, k))
                assert all(isinstance(c, int) for c in cs)
                if L.root_positive(sid, k):
                    assert all(c >= 0 for c in cs)
                else:
                    assert all(c <= 0 for c in cs)


def test_generators_satisfy_chevalley_relations(sl3_loop, a2_twisted):
    for L in (sl3_loop, a2_twisted):
        gens = L.generators()
        for i, g in enumerate(gens):
            assert (L.bracket(g["plus"], g["minus"]) - g["h"]).is_zero()
            assert (L.bracket(g["h"], g["plus"]) - g["plus"].scale(2)).is_zero()
            assert (L.bracket(g["h"], g["minus"]) + g["minus"].scale(2)).is_zero()


def test_parabolic_full_positive_part(sl2_loop):
    # S = Pi \ {affine node}: p^S_+ = g[z] (non-negative degrees only)
    L = sl2_loop
    basis = L.parabolic_basis({1}, 2)
    for e in basis:
        for (_, k) in e.terms:
            assert k >= 0
    # z^-1 f is not a member
    assert not L.in_parabolic(L.from_chev(-1, {1: Q(1)}), {1}, 2)
    assert L.in_parabolic(L.from_chev(1, {1: Q(1)}), {1}, 2)


def test_parabolic_empty_is_borel(sl3_loop):
    L = sl3_loop
    basis = L.parabolic_basis(set(), 1)
    for e in basis:
        (sid, k), = e.terms
        if L.slots[sid].positive is None and k == 0:
            continue
        assert L.root_positive(sid, k)


def test_parabolic_closed_under_bracket(sl3_loop):
    L = sl3_loop
    basis = L.parabolic_basis({1}, 1)
    for a in basis:
        for b in basis:
            br = L.bracket(a, b)
            if br.is_zero() or any(abs(k) > 1 for (_, k) in br.terms):
                continue
            assert L.in_parabolic(br, {1}, 2)


def test_parabolic_rejects_full_set(sl2_loop):
    with pytest.raises(ValueError):
        sl2_loop.parabolic_basis({0, 1}, 1)


def test_roots_window_enumeration(sl2_loop, sl2_coxeter):
    from loopcybe.loop import AffineRoot
    roots = sl2_loop.roots_up_to(1)
    # sl2[z, z^-1]: real roots (+-alpha, k) plus imaginary (0, +-1)
    assert len(roots) == 8
    assert AffineRoot((Q(2),), 0) in roots
    assert AffineRoot((Q(0),), 1) in roots
    assert AffineRoot((Q(0),), 0) not in roots
    # default window is 3m
    assert sl2_coxeter.roots_up_to() == sl2_coxeter.roots_up_to(3 * sl2_coxeter.m)
    r = sl2_loop.roots_up_to(1)[0]
    assert (r.alpha, r.k) == (r[0], r[1])


def test_diagram_data_matches_ad_trace_oracle():
    """h_gram and node coroots against the ad-trace Killing form of the table."""
    for label, s in [("A1", [1, 0]), ("A2", [1, 0, 0]), ("B2", [1, 0, 0]),
                     ("A3", [1, 0, 0, 0]), ("C3", [1, 0, 0, 0]), ("G2", [0, 1, 0])]:
        sigma = SigmaType.make(label, s)
        light = affine_diagram_data(sigma)
        full = loop_algebra(sigma)
        gram = oracle_cartan_gram(full.alg, full.h_basis)
        assert light.h_gram == full.h_gram == gram
        assert light.node_coroots == [solve(gram, list(w)) for w in light.node_weights]


# (label, nu, s): A1-A4, every non-identity nu of D4, A4^(2) graded with
# s_0 = 0 and E6^(2); s = None grades by e_0
H_SLOT_ALGEBRAS = ([("A%d" % n, None, None) for n in range(1, 5)]
                   + [("D4", nu, None) for nu in [(0, 1, 3, 2), (2, 1, 0, 3), (3, 1, 2, 0),
                                                  (2, 1, 3, 0), (3, 1, 0, 2)]]
                   + [("A4", (3, 2, 1, 0), (0, 1, 0)), ("E6", (5, 1, 4, 3, 2, 0), None)])


@pytest.mark.parametrize("label,nu,s", H_SLOT_ALGEBRAS,
                         ids=[label if nu is None else "%s-nu%s" % (label, "".join(map(str, nu)))
                              for label, nu, _ in H_SLOT_ALGEBRAS])
def test_h_elements_are_single_cartan_slots(label, nu, s):
    """Each fixed-Cartan basis vector is one Cartan slot with coefficient 1,
    so fixed-Cartan coordinates are read straight off slot terms."""
    if s is None:
        s = [1] + [0] * (affine_node_count(CartanType.parse(label), nu) - 1)
    L = loop_algebra(SigmaType.make(label, s, nu))
    assert len(L.h_elements) == len(L.h_slots) == L.nh
    for a, (h, sid) in enumerate(zip(L.h_elements, L.h_slots)):
        assert h.terms == {(sid, 0): 1}
        assert L.slots[sid].cartan and L.slots[sid].vec == L.h_basis[a]
    assert sorted(L.h_slots) == [slot.index for slot in L.slots if slot.cartan]


@pytest.mark.parametrize("argv", [["r0", "--type", "B3", "--s", "1,0,0,0"],
                                  ["r0", "--type", "D4", "--s", "1,0,0,0", "--nu", "0,1,3,2"],
                                  ["export", "--what", "catalog", "--type", "A3", "--s", "1,0,0",
                                   "--nu", "2,1,0"],
                                  ["export", "--what", "catalog", "--type", "C3"]],
                         ids=["r0-B3", "r0-D4-nu0132", "catalog-A3-nu210", "catalog-C3"])
def test_slot_pairing_is_lazy(argv, monkeypatch, capsys):
    """Neither `r0` nor a catalog pairs loop elements, so neither builds the
    cached slot pairing."""
    cache: dict = {}
    monkeypatch.setattr(loop, "_LOOP_CACHE", cache)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert not any("slot_pairing" in vars(L) for L in cache.values())
    if argv[0] == "r0":
        (L,) = cache.values()
        e = L.basis_of_degree(0)[0]
        L.form(e, e)
        assert "slot_pairing" in vars(L)      # the check above can see it

import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

import loopcybe.bd as bd
from loopcybe.bd import (BDQuadruple, D_INDEX, ThetaMap, build_rq, build_twist,
                         canonical_t_h, cayley, embed_t_h, gluing_check,
                         manin_identity_sides, manin_t_skew_check,
                         quasi_trig_rearranged, quasi_trig_tensor,
                         th_solution_space, validate, w0_samples, w_isotropy)
from loopcybe.loop import LoopElement, SigmaType, loop_algebra
from loopcybe.tensors import (cybe, from_loop_tensor, r0, residue_operator,
                              skew, t2_add, twist_residual, wedge)

A1 = SigmaType.make("A1", [1, 0])
A2 = SigmaType.make("A2", [1, 0, 0])


def quad(sigma, g1, g2, gamma, t_h=None):
    if t_h is None:
        t_h = canonical_t_h(sigma, g1, g2, gamma)
    return BDQuadruple.make(sigma, g1, g2, gamma, t_h)


# ------------------------------------------------------------------ validate


def test_validate_empty_quadruple():
    q = BDQuadruple.make(A2, set(), set(), {}, {(0, 1): Q(5)})
    rep = validate(q)
    assert rep["valid"]          # conditions 1-3 are vacuous


def test_validate_a2_singleton():
    q = quad(A2, {1}, {2}, {1: 2})
    rep = validate(q)
    assert rep["valid"]


def test_validate_identity_gamma_fails_condition2():
    q = BDQuadruple.make(A2, {1}, {1}, {1: 1}, {})
    rep = validate(q)
    assert not rep["valid"]
    assert rep["condition2"]["trapped"] == [1]


def test_validate_reports_condition1_witness():
    # C2^(1): nodes 0 and 1 have different lengths
    sigma = SigmaType.make("C2", [1, 0, 0])
    q = BDQuadruple.make(sigma, {0}, {1}, {0: 1}, {})
    rep = validate(q)
    assert not rep["condition1"]["ok"]
    assert rep["condition1"]["violations"][0]["i"] == 0


def test_validate_condition3_residual():
    # wrong t_h: the report carries the nonzero residual
    q = BDQuadruple.make(A2, {1}, {2}, {1: 2}, {(0, 1): Q(1)})
    rep = validate(q)
    assert not rep["condition3"]["ok"]
    assert rep["condition3"]["residuals"]


# ----------------------------------------------------------- solution spaces


@pytest.mark.parametrize("sigma,g1,g2,gamma,l", [
    (A1, set(), set(), {}, 2),
    (A2, set(), set(), {}, 3),
    (A2, {1}, {2}, {1: 2}, 2),
    (A1, {1}, {0}, {1: 0}, 1),
])
def test_th_dimension_formula(sigma, g1, g2, gamma, l):
    space = th_solution_space(sigma, g1, g2, gamma)
    assert space["dimension"] == l * (l - 1) // 2


def test_th_canonical_is_d_free_and_solves():
    th = canonical_t_h(A2, {1}, {2}, {1: 2})
    assert th == {(0, 1): Q(1, 36)}
    assert all(D_INDEX not in k for k in th)


def test_th_particular_is_d_free_on_random_condition3_systems(monkeypatch):
    """The particular solution of the one reduction is d-free whenever some
    solution is (the proof is in CHANGES.md).  Random int systems
    2 iota_{h_i} t + c_i = 0, with d entries in the h_i and c_i =
    -2 iota_{h_i} t0 for a random d-free t0, stand in for the diagram:
    Gamma_1 = {0..k-1}, gamma(i) = k + i, and Gamma_1's own rows are zero."""
    rng = random.Random(20240)
    with_d = 0
    for _ in range(300):
        nh = rng.randint(2, 5)
        k = rng.randint(1, nh)
        t0 = {(a, b): Q(rng.randint(-3, 3)) for a in range(nh) for b in range(a + 1, nh)}
        hs = [[rng.randint(-2, 2) for _ in range(nh + 1)] for _ in range(k)]
        cs = []
        for h in hs:
            c = [0] * nh
            for (a, b), x in t0.items():
                c[b] -= 2 * x * h[a]
                c[a] += 2 * x * h[b]
            cs.append(c)
        stub = SimpleNamespace(nh=nh, integer_nodes=([[0] * (nh + 1)] * k + hs,
                                                     [[0] * nh] * k + cs, 1))
        monkeypatch.setattr(bd, "affine_diagram_data", lambda sigma: stub)
        gamma = {i: k + i for i in range(k)}
        gamma1 = frozenset(gamma)
        assert not any(any(v) for v in bd.condition3_residual(stub, gamma, gamma1, t0).values())
        space = th_solution_space(None, gamma1, gamma.values(), gamma)
        with_d += any(D_INDEX in key for b in space["basis"] for key in b)
        th = space["particular"]
        assert all(D_INDEX not in key for key in th)
        assert not any(any(v) for v in bd.condition3_residual(stub, gamma, gamma1, th).values())
    assert with_d >= 50, with_d


def test_th_empty_gamma_full_space():
    space = th_solution_space(A1, set(), set(), {})
    # dimension 1 realized by the h ^ d direction on the extended Cartan
    assert space["dimension"] == 1
    assert any(D_INDEX in k for b in space["basis"] for k in b)


# -------------------------------------------------------------------- theta


def test_theta_empty_is_zero(sl3_loop):
    theta = ThetaMap(sl3_loop, frozenset(), {})
    for f in sl3_loop.basis_up_to(1):
        assert theta.apply(f).is_zero()


def test_theta_nilpotent_orbit_length(sl3_loop):
    theta = ThetaMap(sl3_loop, frozenset({1}), {1: 2})
    assert theta.nilpotency_index(2) == 2      # theta^2 = 0, orbit escapes in 1


def test_theta_bracket_compatibility(sl3_loop):
    """theta[x, y] = [theta x, theta y] on the spanned subalgebra."""
    L = sl3_loop
    theta = ThetaMap(L, frozenset({1, 2}), {1: 0, 2: 1})
    gens = L.generators()
    span_elems = [gens[i][k] for i in (1, 2) for k in ("plus", "minus", "h")]
    for a in span_elems:
        for b in span_elems:
            lhs = theta.apply(L.bracket(a, b))
            rhs = L.bracket(theta.apply(a), theta.apply(b))
            assert (lhs - rhs).is_zero()


def test_theta_maps_generators(sl3_loop):
    L = sl3_loop
    theta = ThetaMap(L, frozenset({1}), {1: 2})
    gens = L.generators()
    assert (theta.apply(gens[1]["plus"]) - gens[2]["plus"]).is_zero()
    assert (theta.apply(gens[1]["minus"]) - gens[2]["minus"]).is_zero()
    assert (theta.apply(gens[1]["h"]) - gens[2]["h"]).is_zero()
    assert theta.apply(gens[0]["plus"]).is_zero()


# -------------------------------------------------------------------- twist


def test_twist_empty_gamma_is_t_h():
    th = {(0, 1): Q(2, 7)}
    q = BDQuadruple.make(A2, set(), set(), {}, th)
    L = loop_algebra(A2)
    assert build_twist(q) == embed_t_h(L, th)


def test_twist_single_wedge_a1():
    # Gamma1 = {1} -> {0} on A1^(1): one wedge b_{-a} ^ theta(b_a)
    q = quad(A1, {1}, {0}, {1: 0})
    L = loop_algebra(A1)
    t = build_twist(q)
    # t = (f/4) ^ (z f): support at degrees (0,1) and (1,0) on f (x) f
    assert t == {(0, 1, 1, 1): Q(1, 4), (1, 0, 1, 1): Q(-1, 4)}
    assert not twist_residual(L, t)


def test_twist_invariance_under_root_vector_rescaling(sl3_loop):
    """t_Q does not depend on the choice of b_a, checked by recomputation."""
    L = sl3_loop
    q = quad(A2, {1, 2}, {0, 1}, {1: 0, 2: 1})
    reference = build_twist(q)
    theta = ThetaMap(L, q.gamma1, q.gamma_map)
    random.seed(13)
    for _ in range(10):
        out = embed_t_h(L, q.t_h_dict)
        for (w, k) in theta.positive_roots:
            sid = L.root_slot(w, k)
            b, bminus = L.root_vector_pair(sid, k)
            c = Q(random.randint(1, 9), random.randint(1, 9))
            b, bminus = b.scale(c), bminus.scale(1 / c)
            img = theta.apply(b)
            while not img.is_zero():
                out = t2_add(out, wedge(L, bminus, img))
                img = theta.apply(img)
        assert out == reference


@pytest.mark.parametrize("sigma,g1,g2,gamma", [
    (A1, {1}, {0}, {1: 0}),
    (A2, {1}, {2}, {1: 2}),
    (A2, {1, 2}, {0, 1}, {1: 0, 2: 1}),
])
def test_twist_residual_zero(sigma, g1, g2, gamma):
    q = quad(sigma, g1, g2, gamma)
    L = loop_algebra(sigma)
    t = build_twist(q)
    assert not twist_residual(L, t)
    r = r0(L) + from_loop_tensor(L, t)
    assert not cybe(r)
    assert skew(r).is_zero()


def test_twist_rejects_invalid():
    q = BDQuadruple.make(A2, {1}, {1}, {1: 1}, {})
    with pytest.raises(ValueError):
        build_twist(q)


# ----------------------------------------------------------------- operator


def test_rq_trivial_case():
    q = BDQuadruple.make(A2, set(), set(), {}, {})
    L = loop_algebra(A2)
    rq = build_rq(q)
    r0_op = residue_operator(L, {})
    for f in L.basis_up_to(2):
        assert (rq(f) - r0_op(f)).is_zero()


@pytest.mark.parametrize("sigma", [A2, SigmaType.make("A3", [0, 1, 1, 0]),
                                   SigmaType.make("A3", [1, 0, 0], [2, 1, 0]),
                                   SigmaType.make("D4", [1, 0, 0], [2, 1, 3, 0])],
                         ids=["A2", "A3-s0110", "A3-nu210", "D4-nu2130"])
def test_rq_of_trivial_quadruple_is_r0_operator(sigma):
    """With Gamma_1 empty and t_h = 0, R_Q is R_0 = pi_h/2 + pi_-."""
    q = BDQuadruple.make(sigma, set(), set(), {}, {})
    L = loop_algebra(sigma)
    rq, r0_op = build_rq(q), residue_operator(L, {})
    for f in L.basis_up_to(3):
        assert rq(f) == r0_op(f)


@pytest.mark.parametrize("sigma,g1,g2,gamma", [
    (A1, {1}, {0}, {1: 0}),
    (A2, {1}, {2}, {1: 2}),
    (A2, {1, 2}, {0, 1}, {1: 0, 2: 1}),
])
def test_rq_matches_residue_operator(sigma, g1, g2, gamma):
    q = quad(sigma, g1, g2, gamma)
    L = loop_algebra(sigma)
    rq = build_rq(q)
    rt = residue_operator(L, build_twist(q))
    for f in L.basis_up_to(3):
        assert (rq(f) - rt(f)).is_zero()


def test_rq_neumann_on_negatives(sl3_loop):
    """(pi_- - theta-)^{-1} = pi_- + theta- pi_- + ... terminates."""
    L = sl3_loop
    q = quad(A2, {1}, {2}, {1: 2})
    rq = build_rq(q)
    theta_bwd = ThetaMap(L, q.gamma2, {2: 1})
    gens = L.generators()
    f = gens[2]["minus"]
    expect = f + theta_bwd.apply(f)
    assert theta_bwd.apply(theta_bwd.apply(f)).is_zero()
    assert (rq(f) - expect).is_zero()


# ------------------------------------------------------------------- Cayley


def test_cayley_trivial():
    q = BDQuadruple.make(A2, set(), set(), {}, {})
    rep = cayley(q, d=2)
    assert rep["c1_matches"] and rep["c2_matches"]


def test_cayley_sample_quadruple():
    q = quad(A2, {1}, {2}, {1: 2})
    rep = cayley(q, d=2)
    assert rep["c1_matches"] and rep["c2_matches"]


def test_cayley_gluing_matrix():
    """y-Cartan part = phi(x-Cartan part) for (x, y) = ((R-1)f, Rf)."""
    from loopcybe.bd import cartan_gluing_matrix
    from loopcybe.linalg import mat_vec
    q = quad(A2, {1, 2}, {0, 1}, {1: 0, 2: 1})
    L = loop_algebra(A2)
    phi = cartan_gluing_matrix(L, q.t_h_dict)
    rq = build_rq(q)
    h_keys = [(s.index, 0) for s in L.slots if s.cartan]
    # express Cartan parts in fixed-basis coordinates by solving slot coords
    for f in L.basis_of_degree(0):
        y = rq(f)
        x = y - f
        xc = [x.terms.get(k, Q(0)) for k in h_keys]
        yc = [y.terms.get(k, Q(0)) for k in h_keys]
        # slot coordinates here are the h-basis coordinates directly
        coords_x = _h_coords(L, xc, h_keys)
        coords_y = _h_coords(L, yc, h_keys)
        assert mat_vec(phi, coords_x) == coords_y


def _h_coords(L, slot_coeffs, h_keys):
    # convert Cartan slot coefficients to fixed-basis coordinates
    from loopcybe.linalg import solve
    rows = sorted({i for hv in L.h_basis for i in hv})
    mat = [[L.h_basis[c].get(r, Q(0)) for c in range(L.nh)] for r in rows]
    vec = {}
    for (sid, _), c in zip(h_keys, slot_coeffs):
        if c:
            for i, ci in L.slots[sid].vec.items():
                vec[i] = vec.get(i, 0) + c * ci
    rhs = [vec.get(r, Q(0)) for r in rows]
    sol = solve(mat, rhs)
    assert sol is not None
    return sol


def test_cayley_h_parts_span_for_zero_t():
    # psi(0) -/+ 1/2 are scalar multiples of the identity: h_1 + h_2 = h
    q = BDQuadruple.make(A2, set(), set(), {}, {})
    L = loop_algebra(A2)
    rep = cayley(q, d=0)
    from loopcybe.linalg import rank
    h_rows = [r for r in rep["predicted_c1"] + rep["predicted_c2"] if any(r)]
    assert rank(h_rows) >= L.nh


# ----------------------------------------------------------------- isotropy


@pytest.mark.parametrize("sigma,g1,g2,gamma", [
    (A1, set(), set(), {}),
    (A1, {1}, {0}, {1: 0}),
    (A2, {1}, {2}, {1: 2}),
    (A2, {1, 2}, {0, 1}, {1: 0, 2: 1}),   # chain: theta-series of length 2
])
def test_w_isotropy(sigma, g1, g2, gamma):
    q = quad(sigma, g1, g2, gamma) if gamma else BDQuadruple.make(sigma, g1, g2, gamma, {})
    rep = w_isotropy(q, d=2)
    assert rep["isotropy_ok"]
    assert rep["membership_ok"]
    assert rep["diagonal_ok"]
    assert gluing_check(q, d=2)


# ---------------------------------------------------------------- Manin map


def test_manin_zero_twist(sl2_loop):
    L = sl2_loop
    samples = w0_samples(L, 2)
    left, right = manin_identity_sides(L, {}, (samples[0], samples[1], samples[2]))
    assert left == 0 and right == 0


def test_manin_identity_for_twist(sl3_loop):
    L = sl3_loop
    q = quad(A2, {1}, {2}, {1: 2})
    t = build_twist(q)
    assert manin_t_skew_check(L, t, w0_samples(L, 1))
    random.seed(14)
    samples = w0_samples(L, 2)
    for _ in range(6):
        tri = tuple(random.sample(samples, 3))
        left, right = manin_identity_sides(L, t, tri)
        assert left == right == 0


def test_manin_identity_nontwist_nonzero(sl2_loop):
    """For t = e^f both sides agree and some triple is nonzero."""
    L = sl2_loop
    e = L.from_chev(0, {0: Q(1)})
    f = L.from_chev(0, {1: Q(1)})
    t = wedge(L, e, f)
    assert manin_t_skew_check(L, t, w0_samples(L, 1))
    # the residual is concentrated in degree 0, so scan all small triples
    samples = w0_samples(L, 1)
    seen_nonzero = False
    for w1 in samples:
        for w2 in samples:
            for w3 in samples:
                left, right = manin_identity_sides(L, t, (w1, w2, w3))
                assert left == right
                seen_nonzero = seen_nonzero or left != 0
    assert seen_nonzero


# ------------------------------------------------- quasi-trigonometric form


def test_quasi_trig_leading_pole(sl2_loop):
    q = BDQuadruple.make(A1, set(), set(), {}, {})
    r = quasi_trig_tensor(q)
    # leading pole term y C/(x - y): pole numerator is the full Casimir
    assert r.pole_num == [sl2_loop.alg.casimir()]
    assert r.poly == r0(sl2_loop).poly


def test_quasi_trig_equals_r0_plus_twist():
    q = quad(A2, {1}, {2}, {1: 2})
    L = loop_algebra(A2)
    assert quasi_trig_tensor(q) == r0(L) + from_loop_tensor(L, build_twist(q))


@pytest.mark.parametrize("g1,g2,gamma", [
    (set(), set(), {}),
    ({1}, {2}, {1: 2}),
    ({1, 2}, {0, 1}, {1: 0, 2: 1}),
])
def test_quasi_trig_rearrangement(g1, g2, gamma):
    """The -1/2(...) closed form equals the first form exactly."""
    q = quad(A2, g1, g2, gamma) if gamma else BDQuadruple.make(A2, g1, g2, {}, {})
    assert quasi_trig_rearranged(q) == quasi_trig_tensor(q)


def test_quasi_trig_requires_untwisted():
    q = BDQuadruple.make(SigmaType.make("A1", [1, 1]), set(), set(), {}, {})
    with pytest.raises(ValueError):
        quasi_trig_tensor(q)


def test_all_c2_quadruples_solve_cybe():
    """Module invariant: every valid quadruple on C2^(1) gives an exact
    skew solution (the short middle node admits no escaping image, so
    only the empty and end-swapping triples survive)."""
    import loopcybe.classify as cl
    sigma = SigmaType.make("C2", [1, 0, 0])
    qs = cl.quadruples_with_canonical_t_h(sigma)
    assert len(qs) == 3
    L = loop_algebra(sigma)
    for q in qs:
        t = build_twist(q)
        r = r0(L) + from_loop_tensor(L, t)
        assert not cybe(r)
        assert skew(r).is_zero()


@pytest.mark.parametrize("label,s,nu", [
    ("A1", [0, 1], None), ("A2", [0, 1, 0], None), ("B2", [0, 1, 0], None),
    ("C2", [0, 0, 1], None), ("A3", [0, 1, 0], [2, 1, 0])])
def test_quadruples_solve_cybe_when_s0_is_zero(label, s, nu):
    """With s_0 = 0 some degree-0 root vectors of negative finite root are
    affine-positive; r0 splits C_0 by the affine sign, so every valid
    quadruple still gives an exact solution."""
    import loopcybe.classify as cl
    sigma = SigmaType.make(label, s, nu)
    L = loop_algebra(sigma)
    qs = cl.quadruples_with_canonical_t_h(sigma)
    assert len(qs) > 1
    for q in qs:
        assert not cybe(r0(L) + from_loop_tensor(L, build_twist(q))), q


def test_verify_cybe_symbolic_on_b4_witness():
    """dim g = 36 is checked symbolically: the B4 census witness solves CYBE,
    and doubling its twist does not."""
    from loopcybe.tensors import t2_scale, verify_cybe
    sigma = SigmaType.make("B4", [1, 0, 0, 0, 0])
    g1, g2, gm = {0, 1}, {1, 3}, {0: 1, 1: 3}
    q = BDQuadruple.make(sigma, g1, g2, gm, canonical_t_h(sigma, g1, g2, gm))
    L = loop_algebra(sigma)
    t = build_twist(q)
    verdict = verify_cybe(r0(L) + from_loop_tensor(L, t))
    assert verdict == {"cybe": "zero", "skew": "zero", "mode": "symbolic"}
    doubled = verify_cybe(r0(L) + from_loop_tensor(L, t2_scale(t, 2)))
    assert doubled == {"cybe": "nonzero", "skew": "zero", "mode": "symbolic"}
